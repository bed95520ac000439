"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``table1``
    Regenerate the paper's Table 1 (static vs dynamic grid
    unavailability at a chosen p).
``grid N``
    Show ``DefineGrid(N)``: the layout, quorum sizes, and an example
    read/write quorum.
``availability``
    Compare the analytic unavailability of every implemented protocol at
    one (N, p) point.
``simulate``
    Monte Carlo availability of the exact dynamic epoch protocol under
    the site model (optionally with a finite epoch-check period).
``demo``
    A short end-to-end scenario on the simulated cluster: writes, a
    failure, an epoch change, healing, and a consistency check.
``chaos``
    Seeded chaos runs: a generated workload under message faults,
    crashes, partitions, link cuts, and nemesis triggers, validated by
    the full history checker.  ``--shrink``/``--artifact`` minimize a
    failure to a replayable JSON schedule; ``--replay`` re-runs one;
    ``--gray`` runs the gray-failure spec (one slow-but-correct replica
    under adaptive timeouts and hedged polls).
``metrics``
    Run seeded chaos workloads and report the protocol metrics: per-op
    latency percentiles, RPC attempts/timeouts per link, stale->healed
    propagation lag, 2PC abort reasons, epoch-checker health.
    ``--json`` exports the summary and raw snapshot for offline
    analysis; multi-seed runs merge exactly (pooled percentiles).
``shard``
    A sharded-keyspace scenario: a keyed Zipf workload over many
    shards, one batched epoch sweep after a crash (one request per
    node, not per shard), and hot-shard detection/rebalancing from the
    per-shard operation counters.
``strategy``
    Show the workload-aware quorum strategy the optimizer picks for a
    grid of N replicas at a given read fraction: the weighted quorum
    distribution, the predicted per-node loads, and whether the
    read-one tier engages (and at what load advantage).
``lint``
    Protocol-aware static analysis: the AST rules of ``repro.lint``
    (determinism, clock discipline, message shape, metric keys,
    handler coverage, lock discipline, config drift, transport
    boundary) over the given paths, and with ``--coteries`` the
    semantic verification of every registered coterie family and its
    Lemma-1 epoch transitions at small N.  Exit 0 clean, 1 findings,
    2 errors.
``sanitize``
    Schedule sanitizer: one seeded crash-free workload under K bounded
    message-reordering schedules, each checked by the happens-before
    race tracker and the quiesce leak assertions, plus a schedule-0
    bit-reproducibility replay.  ``--canary`` re-introduces the
    stranded-lock bug and exits 0 iff the sanitizer catches it;
    ``--json`` writes the ``repro-sanitize-v1`` artifact; ``--shrink``
    delta-debugs the first failing schedule to a minimal spec.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence


def _cmd_table1(args: argparse.Namespace) -> int:
    from fractions import Fraction

    from repro.availability.chains.dynamic_grid import (
        dynamic_grid_unavailability,
    )
    from repro.availability.formulas import best_static_grid

    p = args.p
    ratio = Fraction(p).limit_denominator(10 ** 6)
    mu_over_lam = ratio / (1 - ratio)
    print(f"Write unavailability, p = {p} (mu/lam = {mu_over_lam})")
    print(f"{'N':>3}  {'best dims':>9}  {'static':>12}  {'dynamic':>12}")
    for n in args.sizes:
        m, cols, avail = best_static_grid(n, p)
        dynamic = dynamic_grid_unavailability(n, 1, mu_over_lam,
                                              exact=not args.fast)
        print(f"{n:>3}  {f'{m}x{cols}':>9}  {1 - avail:>12.6e}  "
              f"{float(dynamic):>12.4e}")
    return 0


def _cmd_grid(args: argparse.Namespace) -> int:
    from repro.coteries.grid import GridCoterie, define_grid

    shape = define_grid(args.n)
    grid = GridCoterie([f"{k:3d}" for k in range(1, args.n + 1)],
                       column_cover=args.cover)
    print(f"DefineGrid({args.n}) = {shape.m} x {shape.n}, b = {shape.b}")
    print(grid.layout())
    print(f"read quorum size : {grid.min_read_quorum_size()}")
    print(f"write quorum size: {grid.min_write_quorum_size()}")
    print(f"example read quorum : "
          f"{[name.strip() for name in grid.read_quorum('cli')]}")
    print(f"example write quorum: "
          f"{[name.strip() for name in grid.write_quorum('cli')]}")
    return 0


def _cmd_availability(args: argparse.Namespace) -> int:
    from fractions import Fraction

    from repro.availability.chains.dynamic_grid import (
        dynamic_grid_read_unavailability,
        dynamic_grid_unavailability,
    )
    from repro.availability.chains.dynamic_voting import (
        dynamic_linear_voting_unavailability,
        dynamic_voting_unavailability,
    )
    from repro.availability.formulas import (
        best_static_grid,
        majority_availability,
        rowa_write_availability,
    )

    n, p = args.n, args.p
    ratio = Fraction(p).limit_denominator(10 ** 6)
    mu = ratio / (1 - ratio)
    m, cols, grid_avail = best_static_grid(n, p)
    rows = [
        (f"static grid ({m}x{cols})", 1 - grid_avail),
        ("static majority", 1 - majority_availability(n, p)),
        ("static ROWA (writes)", 1 - rowa_write_availability(n, p)),
        ("dynamic grid (writes)",
         float(dynamic_grid_unavailability(n, 1, mu))),
        ("dynamic grid (reads)",
         float(dynamic_grid_read_unavailability(n, 1, mu))),
        ("dynamic voting",
         float(dynamic_voting_unavailability(n, 1, mu))),
        ("dynamic-linear voting",
         float(dynamic_linear_voting_unavailability(n, 1, mu))),
    ]
    print(f"Unavailability, N = {n}, p = {p}")
    for label, value in rows:
        print(f"  {label:<24} {value:.6e}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.availability.parallel import simulate_availability_parallel

    estimate = simulate_availability_parallel(
        args.n, args.lam, args.mu, args.horizon, seed=args.seed,
        workers=args.workers, protocol="dynamic",
        check_interval=args.check_interval, kind=args.kind)
    print(f"N = {args.n}, lam = {args.lam}, mu = {args.mu} "
          f"(p = {args.mu / (args.lam + args.mu):.3f}), "
          f"horizon = {args.horizon:g}, kind = {args.kind}")
    checks = ("instantaneous" if args.check_interval is None
              else f"every {args.check_interval:g}")
    print(f"epoch checks: {checks}; workers = {args.workers}")
    print(estimate)
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.core.store import ReplicatedStore

    store = ReplicatedStore.create(args.n, seed=args.seed)
    print(f"cluster of {args.n} replicas (seed {args.seed})")
    result = store.write({"greeting": "hello"})
    print(f"write v{result.version} via quorum {result.good}")
    victim = store.node_names[-1]
    store.crash(victim)
    check = store.check_epoch()
    print(f"crashed {victim}; epoch -> #{check.epoch_number} with "
          f"{len(check.epoch_list)} members")
    result = store.write({"greeting": "still here"})
    print(f"write v{result.version} with {victim} down: ok={result.ok}")
    store.recover(victim)
    store.check_epoch()
    store.settle()
    read = store.read(via=victim)
    print(f"read via recovered {victim}: {read.value}")
    print(f"history verified: {store.verify()}")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.chaos.runner import (
        PROTOCOLS,
        generate_spec,
        make_canary_spec,
        make_gray_spec,
        run_spec,
    )
    from repro.chaos.shrink import replay_artifact, save_artifact, shrink

    if args.replay:
        report = replay_artifact(args.replay)
        print(report.summary())
        # replaying a violation artifact succeeds when it still fails
        return 0 if not report.ok else 1

    protocols = PROTOCOLS if args.protocol == "all" else (args.protocol,)
    if args.gray:
        protocols = ("dynamic",)   # the gray spec targets one protocol
    seeds = (list(range(args.seeds)) if args.seeds is not None
             else [args.seed])
    failures = []
    for protocol in protocols:
        for seed in seeds:
            if args.canary:
                spec = make_canary_spec(
                    bug=args.bug or "skip-decision-record")
            elif args.gray:
                spec = make_gray_spec(seed, n_nodes=args.nodes,
                                      ops=args.ops,
                                      factor=args.gray_factor)
            else:
                spec = generate_spec(seed, protocol=protocol,
                                     n_nodes=args.nodes, ops=args.ops,
                                     bug=args.bug)
            report = run_spec(spec)
            print(report.summary())
            if args.gray and report.ok:
                from repro.obs import build_summary
                rpc = build_summary(report.metrics)["rpc"]
                print(f"  gray: hedges={rpc['hedges'] or 'none'} "
                      f"late={rpc['late_responses']} "
                      f"timeouts={rpc['timeouts']}")
            if not report.ok:
                failures.append(report)
        if args.canary:
            break  # the canary is a single dynamic-protocol spec

    for report in failures:
        if not (args.shrink or args.artifact):
            continue
        result = shrink(report.spec)
        print(f"shrunk {result.original_events} -> {result.events} events "
              f"in {result.runs} runs: {result.report.violation}")
        if args.artifact:
            save_artifact(args.artifact, result)
            print(f"replay artifact written to {args.artifact}")

    if args.canary:
        # the canary injects a bug on purpose: success means catching it
        return 0 if failures else 1
    return 1 if failures else 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    import json
    import os

    from repro.chaos.runner import generate_spec, run_spec
    from repro.obs import (
        build_summary,
        merge_snapshots,
        render_table,
        validate_summary,
    )

    seeds = (list(range(args.seeds)) if args.seeds is not None
             else [args.seed])
    snapshots = []
    all_ok = True
    for seed in seeds:
        spec = generate_spec(seed, protocol=args.protocol,
                             n_nodes=args.nodes, ops=args.ops)
        report = run_spec(spec)
        print(report.summary())
        all_ok = all_ok and report.ok
        snapshots.append(report.metrics)
    summary = validate_summary(
        build_summary(merge_snapshots(snapshots)))
    print()
    print(render_table(summary))

    if args.json is not None:
        path = args.json
        if path == "auto":
            os.makedirs("results", exist_ok=True)
            tag = (f"seed{args.seed}" if args.seeds is None
                   else f"seeds{args.seeds}")
            path = os.path.join(
                "results", f"metrics_{args.protocol}_{tag}.json")
        with open(path, "w") as fh:
            json.dump({"summary": summary,
                       "snapshot": merge_snapshots(snapshots)}, fh,
                      indent=2, sort_keys=True)
        print(f"\nmetrics written to {path}")
    return 0 if all_ok else 1


def _cmd_shard(args: argparse.Namespace) -> int:
    from repro.shard import ShardedStore, hot_shards, placement_fairness, \
        shard_loads
    from repro.workloads.generators import KeyedWorkload, run_keyed_workload

    store = ShardedStore.create(args.nodes, n_shards=args.shards,
                                replication=args.replication,
                                seed=args.seed, track_history=True)
    print(f"{args.nodes} nodes, {args.shards} shards, "
          f"replication {args.replication} (seed {args.seed})")
    workload = KeyedWorkload(n_ops=args.ops, n_keys=args.keys,
                             n_clients=args.clients,
                             read_fraction=args.read_fraction,
                             key_skew=args.skew)
    stats = run_keyed_workload(store, workload, seed=args.seed)
    print(f"workload: {stats.summary()}")

    victim = store.node_names[-1]
    store.crash(victim)
    sweep = store.sweep()
    print(f"crashed {victim}; sweep checked {sweep.checked} shards, "
          f"repaired {len(sweep.repaired)}: {list(sweep.repaired)}")
    store.recover(victim)
    store.sweep()
    store.settle()
    print(f"recovered {victim}; cluster settled "
          f"(resident items: {store.resident_items()})")

    loads = shard_loads(store.metrics_snapshot())
    hot = hot_shards(loads, factor=args.hot_factor, min_ops=1,
                     n_shards=store.map.n_shards)
    fairness = placement_fairness(store.map, loads)
    print(f"hot shards (> {args.hot_factor:g}x mean): {hot}; "
          f"placement fairness {fairness:.3f}")
    if args.rebalance and hot:
        moves = store.rebalance(factor=args.hot_factor, min_ops=1)
        for shard, replicas in moves:
            print(f"  moved shard {shard} -> {list(replicas)}")
        store.settle()
        after = placement_fairness(store.map,
                                   shard_loads(store.metrics_snapshot()))
        print(f"fairness after rebalance: {after:.3f}")
    print(f"history verified: {store.verify()}")
    return 0


def _cmd_strategy(args: argparse.Namespace) -> int:
    from repro.coteries.grid import GridCoterie
    from repro.coteries.majority import MajorityCoterie
    from repro.coteries.optimizer import optimize_strategy

    names = [f"n{i:02d}" for i in range(args.n)]
    rule = {"grid": GridCoterie, "majority": MajorityCoterie}[args.rule]
    coterie = rule(names)
    strategy = optimize_strategy(coterie, args.read_fraction,
                                 seed=args.seed,
                                 allow_read_one=not args.no_read_one)
    print(f"{args.rule} coterie, N = {args.n}, "
          f"read fraction = {args.read_fraction:g}, seed = {args.seed}")
    print(f"solver: {strategy.source}; "
          f"read-one tier: {'on' if strategy.read_one_tier else 'off'}")
    for kind in ("read", "write"):
        support = strategy.support(kind)
        weights = strategy.weights(kind)
        print(f"{kind} support ({len(support)} quorums):")
        shown = sorted(zip(weights, support), reverse=True)[:args.top]
        for weight, quorum in shown:
            print(f"  {weight:8.4f}  {list(quorum)}")
        if len(support) > args.top:
            print(f"  ... {len(support) - args.top} more")
    loads = strategy.loads()
    print(f"predicted max per-node load: {strategy.max_load:.4f}")
    print("per-node loads: "
          + ", ".join(f"{n}={loads[n]:.3f}" for n in sorted(loads)))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    import repro
    from repro.lint import (
        DEFAULT_RULES,
        check_all_families,
        lint_paths,
        render_findings,
        report_to_json,
    )

    exit_code = 0
    payload: dict = {}

    if not args.coteries or args.paths:
        paths = ([Path(p) for p in args.paths] if args.paths
                 else [Path(repro.__file__).parent])
        report = lint_paths(paths, DEFAULT_RULES)
        exit_code = max(exit_code, report.exit_code)
        if args.json:
            payload = report_to_json(report, DEFAULT_RULES)
        else:
            print(render_findings(report, DEFAULT_RULES))

    if args.coteries:
        results = check_all_families(max_n=args.max_n)
        sem_findings = [f for r in results for f in r.findings]
        if sem_findings:
            exit_code = max(exit_code, 1)
        if args.json:
            payload["coteries"] = {
                "ok": not sem_findings,
                "families": [
                    {"family": r.family, "n": r.n, "masks": r.masks,
                     "transitions": r.transitions,
                     "findings": [
                         {"family": f.family, "n": f.n,
                          "check": f.check, "message": f.message}
                         for f in r.findings]}
                    for r in results],
            }
            payload.setdefault("schema", "repro-lint-v1")
        else:
            for result in results:
                print(result.summary())
            for finding in sem_findings:
                print(f"FINDING: {finding}")

    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return exit_code


def _cmd_sanitize(args: argparse.Namespace) -> int:
    from repro.chaos.shrink import shrink
    from repro.sanitize import (
        SanitizeSpec,
        run_sanitized,
        run_sweep,
        save_artifact,
    )

    spec = SanitizeSpec(seed=args.seed, n_nodes=args.nodes, ops=args.ops,
                        schedules=args.schedules, bound=args.bound,
                        canary=args.canary)
    mode = "canary" if spec.canary else "clean"
    print(f"sanitize: seed {spec.seed}, {spec.n_nodes} nodes, "
          f"{spec.ops} ops, K={spec.schedules} schedules "
          f"(bound {spec.bound:g}), mode {mode}")

    def show(result) -> None:
        status = "ok" if result.ok else "FAIL"
        print(f"  schedule {result.schedule}: {status}  "
              f"races={result.races}  digest={result.digest[:16]}  "
              f"t={result.end_time:.1f}")
        for violation in result.violations:
            print(f"    {violation}")

    report = run_sweep(spec, on_result=show)
    print(f"replay: digest={report.replay_digest[:16]} "
          f"{'==' if report.reproducible else '!='} "
          f"baseline {report.baseline_digest[:16]} "
          f"({'bit-reproducible' if report.reproducible else 'DIVERGED'})")

    if args.json is not None:
        save_artifact(args.json, report)
        print(f"sanitize artifact written to {args.json}")

    if args.shrink and report.failures:
        failing = report.failures[0]
        result = shrink(failing.spec, run=run_sanitized)
        print(f"shrunk schedule {failing.schedule}: "
              f"{result.original_events} -> {result.events} events "
              f"in {result.runs} runs: {result.report.violation}")

    if spec.canary:
        # the canary injects the stranded-lock bug on purpose: success
        # means the sanitizer caught it AND the sweep stayed replayable
        caught = report.canary_caught and report.reproducible
        print(f"canary {'caught' if report.canary_caught else 'MISSED'}")
        return 0 if caught else 1
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser for the ``repro`` CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Dynamic structured coterie protocols "
                    "(Rabinovich & Lazowska, SIGMOD 1992)")
    sub = parser.add_subparsers(dest="command", required=True)

    table1 = sub.add_parser("table1", help="regenerate Table 1")
    table1.add_argument("--p", type=float, default=0.95,
                        help="per-node availability (default 0.95)")
    table1.add_argument("--sizes", type=int, nargs="+",
                        default=[9, 12, 15, 16, 20, 24, 30])
    table1.add_argument("--fast", action="store_true",
                        help="float solver instead of exact rationals")
    table1.set_defaults(handler=_cmd_table1)

    grid = sub.add_parser("grid", help="show DefineGrid(N)")
    grid.add_argument("n", type=int)
    grid.add_argument("--cover", choices=["physical", "full"],
                      default="physical")
    grid.set_defaults(handler=_cmd_grid)

    availability = sub.add_parser(
        "availability", help="compare protocols at one (N, p) point")
    availability.add_argument("--n", type=int, default=9)
    availability.add_argument("--p", type=float, default=0.95)
    availability.set_defaults(handler=_cmd_availability)

    simulate = sub.add_parser(
        "simulate", help="Monte Carlo of the exact dynamic protocol")
    simulate.add_argument("--n", type=int, default=9)
    simulate.add_argument("--lam", type=float, default=1.0)
    simulate.add_argument("--mu", type=float, default=4.0)
    simulate.add_argument("--horizon", type=float, default=20000.0)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--check-interval", type=float, default=None)
    simulate.add_argument("--kind", choices=["read", "write"],
                          default="write")
    simulate.add_argument("--workers", type=int, default=1,
                          help="shard the horizon over this many "
                               "processes (default 1 = serial)")
    simulate.set_defaults(handler=_cmd_simulate)

    demo = sub.add_parser("demo", help="end-to-end protocol scenario")
    demo.add_argument("--n", type=int, default=9)
    demo.add_argument("--seed", type=int, default=0)
    demo.set_defaults(handler=_cmd_demo)

    chaos = sub.add_parser(
        "chaos", help="seeded fault-injection runs with history checking")
    chaos.add_argument("--seed", type=int, default=0,
                       help="single seed to run (default 0)")
    chaos.add_argument("--seeds", type=int, default=None, metavar="N",
                       help="run seeds 0..N-1 instead of --seed")
    chaos.add_argument("--ops", type=int, default=60,
                       help="workload length per run (default 60)")
    chaos.add_argument("--nodes", type=int, default=9)
    chaos.add_argument("--protocol",
                       choices=["dynamic", "static", "voting", "all"],
                       default="all")
    chaos.add_argument("--bug", default="",
                       help="inject a protocol bug "
                            "(e.g. skip-decision-record)")
    chaos.add_argument("--canary", action="store_true",
                       help="run the scripted decision-record canary; "
                            "exit 0 iff the checker catches the bug")
    chaos.add_argument("--gray", action="store_true",
                       help="run the gray-failure spec instead: one "
                            "replica 10x slow (up, correct, late) with "
                            "adaptive timeouts + hedged polls enabled")
    chaos.add_argument("--gray-factor", type=float, default=10.0,
                       metavar="X",
                       help="latency multiplier for the gray victim "
                            "(default 10.0)")
    chaos.add_argument("--shrink", action="store_true",
                       help="delta-debug any failure to a minimal spec")
    chaos.add_argument("--artifact", metavar="PATH",
                       help="write the shrunk failure as a replayable "
                            "JSON artifact (implies --shrink)")
    chaos.add_argument("--replay", metavar="PATH",
                       help="re-run a saved artifact and exit")
    chaos.set_defaults(handler=_cmd_chaos)

    metrics = sub.add_parser(
        "metrics", help="run seeded chaos workloads and report the "
                        "protocol metrics (latency percentiles, RPC "
                        "health, staleness, epoch activity)")
    metrics.add_argument("--seed", type=int, default=0,
                         help="single seed to run (default 0)")
    metrics.add_argument("--seeds", type=int, default=None, metavar="N",
                         help="run and merge seeds 0..N-1 instead of "
                              "--seed")
    metrics.add_argument("--ops", type=int, default=60,
                         help="workload length per run (default 60)")
    metrics.add_argument("--nodes", type=int, default=9)
    metrics.add_argument("--protocol",
                         choices=["dynamic", "static", "voting"],
                         default="dynamic")
    metrics.add_argument("--json", nargs="?", const="auto", metavar="PATH",
                         help="also write summary+snapshot JSON (default "
                              "path under results/ when no PATH given)")
    metrics.set_defaults(handler=_cmd_metrics)

    shard = sub.add_parser(
        "shard", help="sharded-keyspace scenario: keyed workload, "
                      "batched epoch sweep, hot-shard rebalancing")
    shard.add_argument("--nodes", type=int, default=6)
    shard.add_argument("--shards", type=int, default=64)
    shard.add_argument("--replication", type=int, default=3)
    shard.add_argument("--seed", type=int, default=0)
    shard.add_argument("--ops", type=int, default=600,
                       help="total operations (default 600)")
    shard.add_argument("--keys", type=int, default=10000,
                       help="keyspace size (default 10000)")
    shard.add_argument("--clients", type=int, default=8)
    shard.add_argument("--read-fraction", type=float, default=0.8)
    shard.add_argument("--skew", type=float, default=1.0,
                       help="Zipf skew of key choice (default 1.0)")
    shard.add_argument("--hot-factor", type=float, default=4.0,
                       help="hot-shard threshold as a multiple of the "
                            "mean shard load (default 4.0)")
    shard.add_argument("--rebalance", action="store_true",
                       help="migrate detected hot shards to the "
                            "least-loaded nodes")
    shard.set_defaults(handler=_cmd_shard)

    strategy = sub.add_parser(
        "strategy", help="show the load-optimal quorum strategy for a "
                         "coterie at one read/write mix")
    strategy.add_argument("--n", type=int, default=9)
    strategy.add_argument("--read-fraction", type=float, default=0.9)
    strategy.add_argument("--seed", type=int, default=0)
    strategy.add_argument("--rule", choices=["grid", "majority"],
                          default="grid")
    strategy.add_argument("--top", type=int, default=8,
                          help="show at most this many quorums per kind "
                               "(default 8)")
    strategy.add_argument("--no-read-one", action="store_true",
                          help="never engage the read-one tier, even "
                               "when it wins on load")
    strategy.set_defaults(handler=_cmd_strategy)

    lint = sub.add_parser(
        "lint", help="protocol-aware static analysis (determinism, "
                     "clock discipline, message shape, metric keys) "
                     "and, with --coteries, semantic verification of "
                     "every coterie family and its epoch transitions")
    lint.add_argument("paths", nargs="*", metavar="PATH",
                      help="files/directories to lint (default: the "
                           "installed repro package)")
    lint.add_argument("--json", action="store_true",
                      help="machine-readable report (schema "
                           "repro-lint-v1)")
    lint.add_argument("--coteries", action="store_true",
                      help="also verify coterie axioms and Lemma-1 "
                           "epoch transitions for every registered "
                           "family (skips the AST rules unless paths "
                           "are given)")
    lint.add_argument("--max-n", type=int, default=9, metavar="N",
                      help="cap the coterie universe size (3^N work "
                           "per family; default 9)")
    lint.set_defaults(handler=_cmd_lint)

    sanitize = sub.add_parser(
        "sanitize", help="schedule sanitizer: K perturbed-timing runs "
                         "of one crash-free workload with "
                         "happens-before race detection, quiesce leak "
                         "assertions, and a bit-reproducibility replay")
    sanitize.add_argument("--seed", type=int, default=0,
                          help="workload seed (default 0)")
    sanitize.add_argument("--nodes", type=int, default=9)
    sanitize.add_argument("--ops", type=int, default=40,
                          help="workload length (default 40)")
    sanitize.add_argument("-k", "--schedules", type=int, default=8,
                          metavar="K",
                          help="schedules per sweep: 0 pristine, "
                               "1..K-1 perturbed (default 8)")
    sanitize.add_argument("--bound", type=float, default=0.5,
                          help="max per-message delay/reorder span "
                               "(default 0.5)")
    sanitize.add_argument("--canary", action="store_true",
                          help="re-introduce the stranded-lock bug; "
                               "exit 0 iff the sanitizer catches it")
    sanitize.add_argument("--json", metavar="PATH",
                          help="write the repro-sanitize-v1 artifact")
    sanitize.add_argument("--shrink", action="store_true",
                          help="delta-debug the first failing schedule "
                               "to a minimal spec")
    sanitize.set_defaults(handler=_cmd_sanitize)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:
        # output piped into a pager/head that closed early: not an error
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
