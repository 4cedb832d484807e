"""Measurement helpers: percentiles with the tail-sample rule, memory, host facts."""

from __future__ import annotations

import math
import os
import platform
import resource
import subprocess
import sys
from typing import Dict, Sequence

__all__ = [
    "MIN_TAIL",
    "percentile",
    "samples_beyond",
    "tail_supported",
    "peak_rss_mb",
    "fresh_import_seconds",
    "host_facts",
    "nproc",
]

#: a percentile is only reported honestly when at least this many samples
#: lie beyond it
MIN_TAIL = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100), linear between closest ranks."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def samples_beyond(samples: Sequence[float], q: float) -> int:
    """How many samples lie strictly above the ``q``-th percentile."""
    if not samples:
        return 0
    cut = percentile(samples, q)
    return sum(1 for value in samples if value > cut)


def tail_supported(samples: Sequence[float], q: float) -> bool:
    """True when at least :data:`MIN_TAIL` samples lie beyond the percentile."""
    return samples_beyond(samples, q) >= MIN_TAIL


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far, in MB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def nproc() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def fresh_import_seconds(src: str) -> float:
    """Time ``import repro`` in a fresh interpreter."""
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {src!r})\n"
        "start = time.perf_counter()\n"
        "import repro\n"
        "print(time.perf_counter() - start)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
        env={**os.environ, "REPRO_TELEMETRY": "0"},
    )
    return float(done.stdout.strip().splitlines()[-1])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def host_facts(seed: int) -> Dict[str, object]:
    """Facts that make numbers from different machines comparable (or not)."""
    import numpy
    import scipy

    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "seed": seed,
    }

