"""Host-side measurement: the CPU clock, memory and facts about the machine.

CPU-seconds here are *user-mode* seconds of this process plus every
child it has already waited for.  Kernel-mode time is left out on
purpose: on the sizing hosts (small VMs) it is dominated by page-fault
and hypervisor cost that swings several-fold between identical runs
(the vectorized 10 000-trial grid read 0.8 s to 4.3 s of system time
around a steady 1.5 s of user time), which no change to this
repository causes.  What it hides is reported separately
(``kernels.minor_faults``, and ``sys_s`` in every run record).
"""

from __future__ import annotations

import multiprocessing
import os
import resource
import sys
from pathlib import Path

from repro.obs.perf import machine_fingerprint


def cpu_seconds() -> float:
    """User-mode CPU seconds of this process and its reaped children."""
    return (
        resource.getrusage(resource.RUSAGE_SELF).ru_utime
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_utime
    )


def sys_seconds() -> float:
    """Kernel-mode CPU seconds of this process and its reaped children."""
    return (
        resource.getrusage(resource.RUSAGE_SELF).ru_stime
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_stime
    )


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def peak_rss_mb() -> float:
    """High-water resident set of the harness or its largest child."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def stop_children() -> None:
    """End and wait for every process this one started and still has.

    ``subprocess.run`` and the supervisor wait for theirs; what is left
    after a spawn-context sweep is multiprocessing's resource tracker,
    which otherwise ends only some time after this process has exited.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        # Closes the tracker's pipe and waits for it; a later spawn
        # starts a new one.
        tracker._resource_tracker._stop()


def filesystem_of(path: Path) -> str:
    """Type of the filesystem holding *path* (longest mount-point match)."""
    target = str(path.resolve())
    best, fstype = "", "unknown"
    try:
        mounts = Path("/proc/self/mounts").read_text(encoding="utf-8")
    except OSError:
        return fstype
    for line in mounts.splitlines():
        fields = line.split()
        if len(fields) < 3:
            continue
        mount = fields[1]
        inside = target == mount or target.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) > len(best):
            best, fstype = mount, fields[2]
    return fstype


def describe(tmp_root: Path) -> dict:
    """What a reader needs to judge the host-time numbers of a run."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        **machine_fingerprint(),  # python, platform, machine, cpu_count
        "numpy": numpy_version,
        "loadavg_at_start": list(os.getloadavg()),
        "tmp_dir": str(tmp_root),
        "tmp_filesystem": filesystem_of(tmp_root),
    }


def warn_if_unfit(info: dict) -> None:
    """Say so on stderr when the host cannot give the workloads their cores."""
    nproc = info["cpu_count"]
    if nproc < 2:
        print(
            "warning: 1 CPU -- sweep-supervised-traced runs two workers and "
            "its numbers are not comparable with a multi-core host",
            file=sys.stderr,
        )
    if info["loadavg_at_start"][0] > nproc:
        print(
            f"warning: load average {info['loadavg_at_start'][0]:.2f} exceeds "
            f"nproc={nproc}; host-time metrics will read worse than the code is",
            file=sys.stderr,
        )
