"""CPU time and proportional memory of the benchmark's process tree, and
its shutdown.

The tree is this process plus its live ``multiprocessing`` children (the
shard workers), not the load generator.  CPU is ``utime + stime`` from ``/proc/<pid>/stat``;
memory is PSS from ``/proc/<pid>/smaps_rollup``, so pages shared between
the coordinator and its forked workers are counted once in total.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from multiprocessing import resource_tracker

_CLK_TCK = os.sysconf("SC_CLK_TCK")


#: Children named with this prefix belong to the benchmark (the load
#: generator), not to the program, and are left out of the tree.
OWN_PREFIX = "perfbench-"


def tree_pids() -> list[int]:
    """This process and its live multiprocessing children, the benchmark's own left out."""
    return [os.getpid()] + [
        c.pid for c in multiprocessing.active_children()
        if not c.name.startswith(OWN_PREFIX)
    ]


def cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds ``pid`` has used so far."""
    with open(f"/proc/{pid}/stat") as fh:
        raw = fh.read()
    # The command name may hold spaces; fields resume after its ')'.
    fields = raw[raw.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def pss_mb(pid: int) -> float:
    """Proportional set size of ``pid`` in MiB."""
    with open(f"/proc/{pid}/smaps_rollup") as fh:
        for line in fh:
            if line.startswith("Pss:"):
                return int(line.split()[1]) / 1024.0
    raise ValueError(f"no Pss line in /proc/{pid}/smaps_rollup")


def _read_all(read, pids: list[int]) -> dict[int, float]:
    out = {}
    for pid in pids:
        try:
            out[pid] = read(pid)
        except (FileNotFoundError, ProcessLookupError):
            continue  # exited between listing and reading
    return out


class TreeCpu:
    """CPU seconds the process tree used between ``start`` and ``stop``.

    A child that started in between counts from zero; one that exited in
    between is lost (the shard workers live for the whole run).
    """

    def __init__(self) -> None:
        self._start: dict[int, float] = {}
        self.seconds = 0.0

    def start(self) -> "TreeCpu":
        self._start = _read_all(cpu_seconds, tree_pids())
        return self

    def stop(self) -> float:
        end = _read_all(cpu_seconds, tree_pids())
        self.seconds = sum(v - self._start.get(pid, 0.0) for pid, v in end.items())
        return self.seconds


def tree_pss_mb() -> float:
    """Summed PSS of the live process tree, in MiB."""
    return sum(_read_all(pss_mb, tree_pids()).values())


def child_pids() -> list[int]:
    """Every live direct child of this process, from ``/proc``."""
    me, out = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                raw = fh.read()
        except OSError:
            continue
        fields = raw[raw.rindex(")") + 2:].split()
        if int(fields[1]) == me and fields[0] != "Z":
            out.append(int(entry))
    return out


def _wait_pid(pid: int, timeout: float) -> bool:
    """Reap ``pid``; True once it has ended, False if still alive at ``timeout``."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            done, _status = os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            return True  # already reaped
        if done:
            return True
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.02)


def _end(pid: int, timeout: float) -> None:
    """Wait up to ``timeout`` for ``pid``, then SIGTERM, then SIGKILL."""
    for sig in (None, signal.SIGTERM, signal.SIGKILL):
        if sig is not None:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        if _wait_pid(pid, timeout if sig is None else 5.0):
            return


def stop_children(timeout: float = 10.0) -> None:
    """Stop every process this one started and wait until each has ended.

    That is the ``multiprocessing`` children (shard workers, the load
    generator), then the ``multiprocessing`` resource tracker, which the
    shared-memory segments and the spawn context start and which would
    otherwise outlive this process by a moment, then any other child.
    Call it last: creating or unlinking a segment afterwards would start
    a new tracker.
    """
    for child in multiprocessing.active_children():
        child.join(timeout)
        if child.is_alive():
            child.terminate()
            child.join(5.0)
        if child.is_alive():
            child.kill()
            child.join()
    tracker = resource_tracker._resource_tracker
    with tracker._lock:
        fd, pid = tracker._fd, tracker._pid
        tracker._fd = tracker._pid = None
    if fd is not None:
        os.close(fd)  # EOF on its pipe makes the tracker exit
        if pid is not None:
            _end(pid, timeout)
    for pid in child_pids():
        _end(pid, 0.0)
