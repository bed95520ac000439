"""Sample statistics and the result envelope shared by every workload."""

from __future__ import annotations

import math
import os
import platform
import subprocess
import sys
from typing import NamedTuple, Optional, Sequence

SCHEMA = "repro-benchmark-v1"

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


class UnsupportedPercentile(ValueError):
    """The sample is too small for the percentile that was asked for."""


class Percentile(NamedTuple):
    """A percentile with the evidence behind it."""

    value: float
    q: float      # the percentile actually reported (<= the one requested)
    n: int        # samples it was taken over, missing ones included


def percentile(samples: Sequence[float], q: float, missing: int = 0,
               strict: bool = False) -> Percentile:
    """Nearest-rank percentile *q* (in 0..1) with its sample count.

    *missing* counts operations that failed or were refused: they have
    no latency, so they rank above every sample, and a percentile that
    lands among them is ``inf``.

    A percentile needs ``MIN_BEYOND`` samples beyond it.  When *q* is
    not supported, the highest percentile that is supported is
    returned instead (its ``q`` says which); with ``strict`` -- or when
    not even one rank is supported -- :class:`UnsupportedPercentile` is
    raised.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be in (0, 1), got {q}")
    n = len(samples) + missing
    rank = max(1, math.ceil(q * n))
    if n - rank < MIN_BEYOND:
        rank = n - MIN_BEYOND
        supported = f"p{100 * rank / n:.3g}" if rank >= 1 else "none"
        if strict or rank < 1:
            raise UnsupportedPercentile(
                f"p{100 * q:g} needs {MIN_BEYOND} samples beyond it; "
                f"n={n} supports {supported}")
        q = rank / n
    if rank > len(samples):
        return Percentile(math.inf, q, n)
    return Percentile(sorted(samples)[rank - 1], q, n)


def _git_commit(root: str) -> Optional[str]:
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def fingerprint(root: str, **run) -> dict:
    """Where and how a result was measured; goes into every JSON output."""
    try:
        import numpy
        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": _git_commit(root),
        "hash_seed": os.environ.get("PYTHONHASHSEED", "random"),
        **run,
    }

