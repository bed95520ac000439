#!/usr/bin/env python3
"""Do same-seed simulated outcomes repeat against a base ref?

    python scripts/same_digests.py <base-ref>

Checks *base-ref* out with ``git worktree`` into a temporary directory,
runs ``bench/run.py --workload W --seed S --seconds 2 --digest`` in both
trees for the four store workloads and seeds 1, 2 and 17, and prints one
``same`` / ``DIFF`` row per run for the hash of every simulated sample
(``sim_sha256``) and for the ``events`` / ``messages`` / ``rpc_attempts``
counts.  Exits non-zero on any ``DIFF``.  A change to the simulation
kernel, the 2PC participant or the coordinator that claims "no simulated
outcome moves" is checked with this (docs: the verify skill).
"""

from __future__ import annotations

import argparse
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
COUNTS = ("events", "messages", "rpc_attempts")


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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base_ref", help="the commit to compare against")
    base_ref = parser.parse_args().base_ref
    differing = 0
    with tempfile.TemporaryDirectory(prefix="same-digests-") as tmp, \
            ThreadPoolExecutor(max_workers=2) as pool:
        base = Path(tmp) / "base"
        subprocess.run(["git", "worktree", "add", "--detach", str(base),
                        base_ref], cwd=ROOT, check=True, capture_output=True)
        try:
            for workload in WORKLOADS:
                for seed in SEEDS:
                    # the two trees' runs are independent: side by side
                    here, there = pool.map(
                        lambda tree: digest(tree, workload, seed),
                        (ROOT, base))
                    same_sim = here["sim_sha256"] == there["sim_sha256"]
                    moved = [name for name in COUNTS
                             if here["counts"][name] != there["counts"][name]]
                    differing += (not same_sim) + bool(moved)
                    print(f"{workload:<24} seed {seed:<3} sim_sha256 "
                          f"{'same' if same_sim else 'DIFF'}   counts "
                          f"{'DIFF ' + ','.join(moved) if moved else 'same'}")
        finally:
            subprocess.run(["git", "worktree", "remove", "--force",
                            str(base)], cwd=ROOT, check=True,
                           capture_output=True)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
