#!/usr/bin/env python3
"""The benchmark's one command.

    python3 bench/run.py --workload NAME --seed S --seconds 10 --trace 0|1
    python3 bench/run.py --all [--trace] [--seed S] [--json OUT]
    python3 bench/run.py --selfcheck [--seed S]

With ``--workload`` one workload runs in this process; the last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` holding every end-to-end metric (``--trace 0``) or every
per-layer metric (``--trace 1``).  A workload whose outputs are wrong
prints no metrics and the exit code is not 0.  ``--all`` runs each
workload in its own process, one after the other.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

SUBRUNS = 3
#: ``--seconds`` that the sizes in ``workloads.py`` are stated for.
NOMINAL_SECONDS = 10
#: What a workload does not run itself comes from a small run of one that
#: does, so that every declared metric has a reading: ``(workload, scale)``.
MC_COMPANION = ("availability_mc", 0.04)
STORE_COMPANION = ("single_item_seq", 0.3)
#: The traced pass uses one sub-run, at this size; its hash-seed check a
#: smaller one still.
TRACE_SCALE = 0.6
HASH_CHECK_SCALE = 0.1
OUT = BENCH / "out"




# -- one workload, in this process ---------------------------------------------

def run_plain(name: str, seed: int, scale: float, import_s: float) -> dict:
    """The untraced run: three sub-runs, end-to-end metrics.  *import_s*
    is what importing the stack cost this process, a part of set-up."""
    from bench import report, workloads
    own, companion = [], []
    is_mc = name == "availability_mc"
    other, other_scale = STORE_COMPANION if is_mc else MC_COMPANION
    references = None if is_mc else workloads.mc_references()
    for index in range(SUBRUNS):
        own.append(workloads.SUBRUNS[name](seed + index, scale, index))
        extra = {} if is_mc else {"references": references}
        companion.append(workloads.SUBRUNS[other](
            seed + index, other_scale * scale, index, **extra))
    store, mc = (companion, own) if is_mc else (own, companion)
    metrics = report.end_to_end(store, mc, import_s, own)
    attempted = sum(r.attempted for r in own + companion)
    failed = sum(r.failed for r in own + companion)
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "declared": report.END_TO_END,
            "counts": [r.counts for r in own],
            "sizes": {"subruns": SUBRUNS, "scale": scale,
                      "timed_ops": [r.timed_ops for r in own],
                      "companion": {"workload": other,
                                    "scale": other_scale * scale}}}


def digest_of(run) -> dict:
    """What must repeat exactly for a seed: every count and every
    simulated sample of one sub-run."""
    sim = repr((run.read_sim, run.write_sim, run.write_gaps_sim,
                run.heal_lag_sim, run.mc_events, run.mc_rel_errs,
                run.attempted, run.failed))
    return {"counts": run.counts,
            "sim_sha256": hashlib.sha256(sim.encode()).hexdigest()}


def run_digest(name: str, seed: int, scale: float) -> dict:
    """The first sub-run alone: its digest and its host times."""
    from bench import workloads
    run = workloads.SUBRUNS[name](seed, scale, 0)
    return {**digest_of(run),
            "host": {"setup_s": run.setup_s, "timed_s": run.timed_s,
                     "verify_s": run.verify_s}}


def _spawn(arguments: list, hash_seed: str = "") -> subprocess.CompletedProcess:
    env = dict(os.environ)
    if hash_seed:
        env["PYTHONHASHSEED"] = hash_seed
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *arguments],
                          env=env, capture_output=True, text=True,
                          timeout=600)


def _last_json(completed: subprocess.CompletedProcess) -> dict:
    if completed.returncode != 0:
        raise RuntimeError(f"child failed ({completed.returncode}):\n"
                           f"{completed.stderr[-2000:]}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _same_digest(a: dict, b: dict) -> bool:
    return all(a[key] == b[key] for key in ("counts", "sim_sha256"))


def hash_seed_invariant(name: str, seed: int, scale: float) -> bool:
    """Does a small first sub-run repeat exactly under two different
    ``PYTHONHASHSEED`` values?"""
    arguments = ["--workload", name, "--seed", str(seed), "--digest",
                 "--seconds", repr(NOMINAL_SECONDS * scale)]
    return _same_digest(*(_last_json(_spawn(arguments, hash_seed))
                          for hash_seed in ("1", "2")))


def run_traced(name: str, seed: int, scale: float) -> dict:
    """The traced pass: one sub-run untraced for the counts and the host
    baseline, the same sub-run under the tracer, and per-layer metrics."""
    from bench import kernels, report, spans, workloads
    subrun = workloads.SUBRUNS[name]
    scale *= TRACE_SCALE
    plain = subrun(seed, scale, 0)
    tracer = spans.Tracer()
    with tracer.installed():
        traced = subrun(seed, scale, 0, region=tracer.region)
    if digest_of(traced) != digest_of(plain):
        raise workloads.GateFailure(
            "the traced sub-run did not reproduce the untraced one")
    bare = None
    if name in ("single_item_seq", "sharded_read_heavy"):
        off = subrun(seed, scale, 0, metrics=False)
        bare = (off.timed_ops - off.timed_failed) / off.timed_s
    is_mc = name == "availability_mc"
    readings = (kernels.read_kernels(seed, scale) if is_mc
                else dict.fromkeys(kernels.KERNELS, 0.0))
    layers = report.per_layer(
        plain, traced, tracer, kernels=readings, metrics_off_ops_per_s=bare,
        hash_seed_invariant=hash_seed_invariant(name, seed,
                                                HASH_CHECK_SCALE))
    OUT.mkdir(exist_ok=True)
    (OUT / f"{name}.trace.json").write_text(json.dumps(
        {"workload": name, "seed": seed, "breakdown": tracer.breakdown(),
         "trees": tracer.trees_json()}))
    metrics = {metric.name: {"value": layers[metric.name], "n": 1}
               for metric in report.PER_LAYER}
    return {"metrics": metrics, "attempted": plain.attempted,
            "failed": plain.failed, "declared": report.PER_LAYER,
            "counts": [plain.counts], "breakdown": tracer.breakdown(),
            "sizes": {"subruns": 1, "scale": scale,
                      "timed_ops": [plain.timed_ops]}}


# -- printing --------------------------------------------------------------------

def print_table(name: str, result: dict) -> None:
    """Every metric by name, with unit, sample count and bound."""
    print(f"== {name} ==")
    for metric in result["declared"]:
        body = result["metrics"][metric.name]
        value = body["value"]
        shown = "null" if value is None else f"{value:.6g}"
        bound = "" if metric.bound is None else f"  bound {metric.bound:.0%}"
        print(f"  {metric.name:52s} {shown:>12s} {metric.unit:6s} "
              f"[{metric.kind}] n={body['n']}{bound}")
    breakdown = result.get("breakdown")
    if breakdown and breakdown["region_s"]:
        print_breakdown(breakdown)


def print_breakdown(breakdown: dict) -> None:
    """Self time per layer and operation kind, as shares of the region."""
    region = breakdown["region_s"]
    kinds = sorted({kind for row in breakdown["self_s"].values()
                    for kind in row})
    print(f"  self time by layer, % of the {region:.3f} s traced region "
          f"(operations started: {breakdown['ops_started']})")
    print("    " + f"{'layer':24s}" + "".join(f"{k:>13s}" for k in kinds)
          + f"{'all':>9s}")
    total = 0.0
    for layer, row in sorted(breakdown["self_s"].items(),
                             key=lambda item: -sum(item[1].values())):
        cells = "".join(f"{100 * row.get(k, 0.0) / region:12.2f}%"
                        for k in kinds)
        print(f"    {layer:24s}{cells}{100 * sum(row.values()) / region:8.2f}%")
        total += sum(row.values())
    print(f"    {'sum':24s}{'':>{13 * len(kinds)}s}{100 * total / region:8.2f}%")


def contract_line(result: dict) -> str:
    """The one-line result the driver reads.  A reading that does not
    exist (a pruned engine) is reported as 0."""
    metrics = {}
    for metric in result["declared"]:
        value = result["metrics"][metric.name]["value"]
        metrics[metric.name] = {"value": 0.0 if value is None else value,
                                "unit": metric.unit}
    return json.dumps({"correct": True, "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def record(name: str, args, result: dict) -> dict:
    """The full ``repro-benchmark-v1`` record of one workload."""
    from bench import stats, workloads
    return {
        "schema": stats.SCHEMA,
        "workload": name,
        "traced": bool(args.trace),
        "fingerprint": stats.fingerprint(
            str(ROOT), seed=args.seed, seconds=args.seconds,
            injected_latency_s=list(workloads.INJECTED_LATENCY),
            **result["sizes"]),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m.name: {**result["metrics"][m.name], "unit": m.unit,
                             "kind": m.kind, "better": m.better,
                             "bound": m.bound}
                    for m in result["declared"]},
        "counts": result["counts"],
        "breakdown": result.get("breakdown"),
    }


# -- modes -----------------------------------------------------------------------

def one_workload(args, import_s: float) -> int:
    scale = args.seconds / NOMINAL_SECONDS
    if args.digest:
        print(json.dumps(run_digest(args.workload, args.seed, scale)))
        return 0
    from bench import workloads
    try:
        result = (run_traced(args.workload, args.seed, scale) if args.trace
                  else run_plain(args.workload, args.seed, scale, import_s))
    except (workloads.GateFailure, ValueError) as failure:
        # wrong outputs: say why, print no metrics
        print(f"{args.workload}: FAILED: {failure}", file=sys.stderr)
        return 1
    print(f"message delay injected by the stores: uniform "
          f"{workloads.INJECTED_LATENCY[0] * 1e3:g}-"
          f"{workloads.INJECTED_LATENCY[1] * 1e3:g} ms (simulated); "
          "sim latencies reflect it, not a network")
    print_table(args.workload, result)
    if args.json:
        Path(args.json).write_text(
            json.dumps(record(args.workload, args, result), indent=1))
    print(contract_line(result))
    return 0


def all_workloads(args) -> int:
    from bench.stats import SCHEMA
    from bench.workloads import WORKLOADS
    OUT.mkdir(exist_ok=True)
    records, status = {}, 0
    for name in WORKLOADS:
        path = OUT / f"{name}.result.json"
        completed = _spawn(["--workload", name, "--seed", str(args.seed),
                            "--seconds", repr(args.seconds),
                            "--trace", str(args.trace), "--json", str(path)])
        sys.stdout.write(completed.stdout)
        sys.stderr.write(completed.stderr)
        if completed.returncode != 0:
            status = 1
            continue
        records[name] = json.loads(path.read_text())
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"schema": SCHEMA, "workloads": records}, indent=1))
    return status


def selfcheck(args) -> int:
    """Two complete runs of each workload with the same seed, each in its
    own process and under a different ``PYTHONHASHSEED``, must agree:
    exactly on every count and every sim metric, within the bounds on
    every host metric.  ``setup_s`` is shown but not held to its bound: a
    process imports once, and two single import times are 25 % apart as
    often as not (the driver, too, exempts it from its spread check)."""
    from bench.workloads import WORKLOADS
    OUT.mkdir(exist_ok=True)
    status = 0
    for name in WORKLOADS:
        records = []
        for hash_seed in ("1", "2"):
            path = OUT / f"{name}.selfcheck{hash_seed}.json"
            completed = _spawn(["--workload", name, "--seed", str(args.seed),
                                "--seconds", repr(args.seconds),
                                "--json", str(path)], hash_seed)
            if completed.returncode != 0:
                sys.stderr.write(completed.stderr)
                return 1
            records.append(json.loads(path.read_text()))
        first, second = records
        inexact = [metric for metric, body in first["metrics"].items()
                   if body["kind"] == "sim"
                   and body["value"] != second["metrics"][metric]["value"]]
        if first["counts"] != second["counts"]:
            inexact.append("counts")
        apart = {metric: abs(body["value"] / second["metrics"][metric]["value"]
                             - 1.0)
                 for metric, body in first["metrics"].items()
                 if body["kind"] == "host"}
        outside = [metric for metric, share in apart.items()
                   if share > first["metrics"][metric]["bound"]
                   and metric != "setup_s"]
        print(f"{name}: counts and sim metrics "
              + (f"DIFFER in {inexact}" if inexact else "identical")
              + " under hash seeds 1 and 2; host metrics apart by "
              + ", ".join(f"{metric} {100 * share:.1f}%"
                          for metric, share in apart.items())
              + (f": OUTSIDE bounds in {outside}" if outside
                 else ": within bounds"))
        if inexact or outside:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload")
    mode.add_argument("--all", action="store_true")
    mode.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=NOMINAL_SECONDS,
                        help="size of the run: the timed regions add up to "
                        "about this many host seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0)
    parser.add_argument("--json", help="write the full record here")
    parser.add_argument("--digest", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    started = time.perf_counter()
    try:
        from bench.workloads import WORKLOADS
    except ImportError as missing:
        # a checkout without src/ has nothing to measure
        print(f"cannot import the system under test from {ROOT / 'src'}: "
              f"{missing}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - started
    if args.workload:
        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
        return one_workload(args, import_s)
    return all_workloads(args) if args.all else selfcheck(args)


if __name__ == "__main__":
    sys.exit(main())
