"""The host block of a result document: what the numbers were measured on.

Fills the fields the committed ``BENCH_*.json`` files leave ``null``:
the core count the process may actually use (affinity, not
``os.cpu_count``), the kernel-thread count the engine resolved, cache
sizes, the filesystem the managed workload writes to, and the
``REPRO_*`` environment — which must be empty, because those variables
switch code paths and would make two result sets incomparable.
"""

from __future__ import annotations

import os
from pathlib import Path

__all__ = ["host_block", "repro_environment"]


def repro_environment() -> dict[str, str]:
    """Every ``REPRO_*`` variable in the environment."""
    return {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")}


def _cache_sizes() -> dict[str, str]:
    """L2/L3 sizes of cpu0 from sysfs, when readable."""
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        indexes = sorted(base.glob("index*"))
    except OSError:
        return sizes
    for index in indexes:
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _filesystem_type(path: Path) -> str | None:
    """Filesystem type of the mount holding ``path`` (longest prefix)."""
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return None
    target = str(path.resolve())
    best, fstype = "", None
    for line in mounts:
        fields = line.split()
        if len(fields) < 3:
            continue
        mount = fields[1]
        prefix = mount if mount.endswith("/") else mount + "/"
        if (target == mount or target.startswith(prefix)) and len(mount) > len(best):
            best, fstype = mount, fields[2]
    return fstype


def host_block(work_dir: Path, kernel_threads: int) -> dict:
    """``repro.obs.host_fingerprint`` plus what it leaves out or null."""
    from repro.obs.history import host_fingerprint

    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        cores = os.cpu_count() or 1
    return {
        **host_fingerprint(),
        # the fingerprint reads REPRO_KERNEL_THREADS, which must be unset
        # here; this is the count the engine actually resolved
        "kernel_threads": int(kernel_threads),
        "affinity_cores": cores,
        "caches": _cache_sizes(),
        "work_dir_fstype": _filesystem_type(work_dir),
        "repro_env": repro_environment(),
    }
