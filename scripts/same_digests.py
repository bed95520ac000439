#!/usr/bin/env python3
"""Do same-seed simulated outcomes repeat against a base ref?

    python scripts/same_digests.py <base-ref | directory>

Checks *base-ref* out with ``git worktree`` into a temporary directory --
or, given an existing directory (a ``git clone`` of the base, where the
sandbox refuses ``git worktree add``), uses that tree as it is -- runs
``bench/run.py --workload W --seed S --seconds 2 --digest`` in both
trees for the four store workloads and seeds 1, 2 and 17, and prints one
row per run: ``same`` / ``DIFF`` for the hash of every simulated sample
(``sim_sha256``) and for the ``messages`` / ``rpc_attempts`` counts, and
``events a -> b`` for the queue entries, which are a *cost*: equal or
lower passes, higher is ``ROSE``.  Exits non-zero on any ``DIFF`` or
``ROSE``.  A change to the simulation kernel, the 2PC participant or the
coordinator that claims "no simulated outcome moves" is checked with
this (docs: the verify skill).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("single_item_seq", "sharded_read_heavy",
             "sharded_write_contended", "faulty_epochs")
SEEDS = (1, 2, 17)
COUNTS = ("messages", "rpc_attempts")     # "events" is a cost: may fall


def digest(tree: Path, workload: str, seed: int) -> dict:
    """The ``--digest`` JSON of one run of *tree*'s own benchmark."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "2", "--digest"],
        cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{tree}: {workload} seed {seed} failed:\n"
                         f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


@contextlib.contextmanager
def base_tree(base: str):
    """The tree to compare against: *base* itself if it is a directory,
    else a temporary ``git worktree`` of that ref."""
    if Path(base).is_dir():
        yield Path(base).resolve()
        return
    with tempfile.TemporaryDirectory(prefix="same-digests-") as tmp:
        tree = Path(tmp) / "base"
        subprocess.run(["git", "worktree", "add", "--detach", str(tree),
                        base], cwd=ROOT, check=True, capture_output=True)
        try:
            yield tree
        finally:
            subprocess.run(["git", "worktree", "remove", "--force",
                            str(tree)], cwd=ROOT, check=True,
                           capture_output=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", help="the commit to compare against, or a "
                                     "directory holding its tree")
    differing = 0
    with base_tree(parser.parse_args().base) as base, \
            ThreadPoolExecutor(max_workers=2) as pool:
        for workload in WORKLOADS:
            for seed in SEEDS:
                # the two trees' runs are independent: side by side
                here, there = pool.map(
                    lambda tree: digest(tree, workload, seed), (ROOT, base))
                same_sim = here["sim_sha256"] == there["sim_sha256"]
                moved = [name for name in COUNTS
                         if here["counts"][name] != there["counts"][name]]
                before = there["counts"]["events"]
                after = here["counts"]["events"]
                differing += (not same_sim) + bool(moved) + (after > before)
                print(f"{workload:<24} seed {seed:<3} sim_sha256 "
                      f"{'same' if same_sim else 'DIFF'}   counts "
                      f"{'DIFF ' + ','.join(moved) if moved else 'same'}"
                      f"   events {before} -> {after}"
                      f"{' ROSE' if after > before else ''}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
