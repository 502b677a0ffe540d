"""Host record attached to every result: where and on what it ran, and
how fast the host is running right now."""

from __future__ import annotations

import gc
import hashlib
import os
import platform
import statistics
import subprocess
import time
from typing import Any, Dict, Optional

#: Median seconds of one :func:`speed_probe` on the reference host (2 vCPU
#: Xeon at its usual speed).  Times are reported at this speed.
REFERENCE_PROBE_S = 2.0e-3

#: Probe runs whose median is one speed reading.
PROBE_REPEATS = 20


def load1() -> float:
    return os.getloadavg()[0]


_PROBE_SIZE = 2000
_PROBE_SUCC = [((i * 31 + 7) % _PROBE_SIZE, (i * 17 + 3) % _PROBE_SIZE)
               for i in range(_PROBE_SIZE)]
_PROBE_KEYS = [("op", i) for i in range(_PROBE_SIZE)]
_PROBE_WEIGHT = {key: (i * 7919) % 101 for i, key in enumerate(_PROBE_KEYS)}


def speed_probe() -> int:
    """A fixed ~2 ms of interpreter work shaped like the program's own:
    graph walks over a worklist with tuple-keyed dict lookups.  Its data
    is built once at import and it allocates next to nothing, so its speed
    does not depend on the state of the program's heap."""
    total = 0
    for root in range(0, 50, 10):
        seen = bytearray(_PROBE_SIZE)
        stack = [root]
        while stack:
            i = stack.pop()
            if seen[i]:
                continue
            seen[i] = 1
            total += _PROBE_WEIGHT[_PROBE_KEYS[i]]
            stack.extend(_PROBE_SUCC[i])
    return total


def speed_scale() -> float:
    """``REFERENCE_PROBE_S`` over the median of ``PROBE_REPEATS`` probe
    runs made now: a wall time measured right after, multiplied by it,
    reads as seconds on the reference host.

    On a shared 2-vCPU Xeon VM the vCPUs run 20-40% slower for minutes
    at a time when other tenants are busy, in CPU time as much as in wall
    time; the probe slows with them, so the product stays put.  The
    cycle collector is off while probing, so the program's heap size
    cannot slow the probe.
    """
    walls = []
    collecting = gc.isenabled()
    gc.disable()
    try:
        for _ in range(PROBE_REPEATS):
            start = time.perf_counter()
            speed_probe()
            walls.append(time.perf_counter() - start)
    finally:
        if collecting:
            gc.enable()
    return REFERENCE_PROBE_S / statistics.median(walls)


def all_cpus_speed_scale() -> float:
    """The mean of :func:`speed_scale` taken on each CPU this process may
    use, with the calling thread pinned to each in turn: the reading for
    work spread over all of them at once (a server with its clients, a
    parallel sweep).  The vCPUs of one VM can differ in speed by 1.5x for
    minutes, so a reading taken on one alone says little about the
    other."""
    cpus = os.sched_getaffinity(0)
    scales = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            scales.append(speed_scale())
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.mean(scales)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: str) -> Optional[str]:
    """HEAD of the checkout, or None when it is not a git repository."""
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def source_digest(src: str) -> str:
    """SHA-256 over the ``.py`` files under ``src`` (path + content), so a
    result names the code it measured even outside a git checkout."""
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def host_record(root: str, src: str) -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "git_commit": git_commit(root),
        "source_sha256": source_digest(src),
        "load1_before": load1(),
    }
