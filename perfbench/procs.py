"""Cross-process CPU and memory accounting for one measured run.

A measured run is one interpreter that spawns others: the pool workers
of a local sweep, the ``repro serve`` subprocess and its warm workers.
``getrusage(RUSAGE_CHILDREN)`` counts a descendant only once it has been
reaped, and a process pool reaps its workers whenever its manager thread
gets round to it, so a reading taken right after a sweep returns can
miss nearly all worker CPU.

The run interpreter therefore makes itself a *child subreaper*: every
orphaned descendant is re-parented to it, and after teardown it reaps
every descendant it has.  Once no descendant is left, ``RUSAGE_SELF +
RUSAGE_CHILDREN`` is the CPU of the whole process tree, whatever the
order in which the pools reaped their workers.  The CPU already spent
when timing starts is read from ``/proc`` for live descendants, at a
moment when the tree is idle.  Linux only.
"""

from __future__ import annotations

import ctypes
import os
import resource
import signal
import threading
import time

PR_SET_CHILD_SUBREAPER = 36
_CLK_TCK = os.sysconf("SC_CLK_TCK")


def become_subreaper() -> None:
    """Adopt every orphaned descendant of this process (Linux prctl)."""
    libc = ctypes.CDLL(None, use_errno=True)
    prctl = libc.prctl
    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                      ctypes.c_ulong, ctypes.c_ulong]
    prctl.restype = ctypes.c_int
    if prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        err = ctypes.get_errno()
        raise OSError(err, f"prctl(PR_SET_CHILD_SUBREAPER): {os.strerror(err)}")


def _stat_fields(pid: int) -> list[str] | None:
    """Fields of ``/proc/<pid>/stat`` after the command name, or None if
    the process is gone.  Index 0 is the state, 1 the parent pid."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii", errors="replace") as fh:
            text = fh.read()
    except OSError:
        return None
    return text[text.rindex(")") + 2:].split()


def descendants(root: int | None = None) -> list[int]:
    """Pids of every live (or zombie) descendant of ``root``."""
    root = os.getpid() if root is None else root
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields is not None:
            children.setdefault(int(fields[1]), []).append(int(entry))
    found, frontier = [], [root]
    while frontier:
        kids = children.get(frontier.pop(), [])
        found.extend(kids)
        frontier.extend(kids)
    return sorted(found)


def _own_cpu_s() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def tree_cpu_s() -> tuple[float, tuple[int, ...]]:
    """CPU seconds spent so far by this process and all its descendants,
    reaped or alive, and the pids of the live ones."""
    pids = descendants()
    ticks = 0
    for pid in pids:
        fields = _stat_fields(pid)
        if fields is not None:  # utime, stime, cutime, cstime
            ticks += sum(int(v) for v in fields[11:15])
    return _own_cpu_s() + ticks / _CLK_TCK, tuple(pids)


def settled_tree_cpu_s(*, tries: int = 40, pause_s: float = 0.05) -> float:
    """:func:`tree_cpu_s` once the set of descendants stops changing, so
    no worker is reaped between reading its parent and reading it."""
    last = tree_cpu_s()
    for _ in range(tries):
        time.sleep(pause_s)
        now = tree_cpu_s()
        if now[1] == last[1] and abs(now[0] - last[0]) < 2.0 / _CLK_TCK:
            return now[0]
        last = now
    return last[0]


def wait_for_threads(timeout_s: float = 10.0) -> None:
    """Let library threads (pool managers, probes) finish their teardown
    before this process starts reaping children itself."""
    deadline = time.monotonic() + timeout_s
    for thread in threading.enumerate():
        if thread is threading.current_thread() or thread.daemon:
            continue
        thread.join(max(0.0, deadline - time.monotonic()))


def reap_all(timeout_s: float = 20.0) -> int:
    """Reap every descendant; SIGKILL whatever outlives ``timeout_s``.

    Returns the number of processes that had to be killed."""
    deadline = time.monotonic() + timeout_s
    killed = 0
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return killed
        if pid:
            continue
        if time.monotonic() >= deadline:
            for stray in descendants():
                try:
                    os.kill(stray, signal.SIGKILL)
                    killed += 1
                except ProcessLookupError:
                    pass
            deadline = time.monotonic() + timeout_s
        time.sleep(0.01)


def vm_ticks() -> tuple[int, int]:
    """``(busy, steal)`` jiffies of all CPUs so far, from ``/proc/stat``.

    Steal is time a vCPU wanted to run but the host ran something else;
    it accrues only while the VM has work, so it is compared with busy
    time, not with idle time."""
    with open("/proc/stat", encoding="ascii") as fh:
        fields = [int(v) for v in fh.readline().split()[1:9]]
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    return user + nice + system + irq + softirq, steal


def available_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Share of the time the VM wanted CPU that the host gave it, between
    two :func:`vm_ticks` readings."""
    busy = after[0] - before[0]
    steal = after[1] - before[1]
    return busy / (busy + steal) if busy + steal > 0 else 1.0


def final_usage() -> tuple[float, float]:
    """``(cpu_s, peak_rss_mb)`` of the whole tree; call after
    :func:`reap_all`.  The peak is the largest peak RSS of any single
    process, this one included (Linux reports ``ru_maxrss`` in KiB)."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return _own_cpu_s(), max(me.ru_maxrss, kids.ru_maxrss) / 1024.0
