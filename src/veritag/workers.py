"""Independent loops in forked processes, with the standard library only.

``fork_map(fn, items, jobs)`` is ``[fn(item) for item in items]`` as the
caller computes it. Up to ``jobs`` processes, the caller included, pull the
items' indices from one queue, a pipe filled before the fork, so a process
that finishes early takes the next item instead of idling. A child reads its
items from the memory it inherited and pickles each value into its own
unlinked temporary file in ``TMPDIR``, opened just before the fork; the
caller reads that file after the child exits. A file never fills as a pipe
does, so no child waits on the caller. Every process stops at its first
exception, and the caller runs every item that no process reported itself,
in item order: a child that dies or cannot report costs only time, and a
failure is raised as the serial loop raises it. Each call reaps its children
before it returns.
"""

from __future__ import annotations

import contextlib
import contextvars
import os
import pickle
import select
import signal
import struct
import sys
import tempfile
import threading
from typing import Callable, Sequence

from .errors import ConfigError

# The queue holds one ticket per item, or with more items than tickets one
# contiguous block of items per ticket. One write of PIPE_BUF bytes fits any
# empty pipe whole, so filling the queue never blocks.
_TICKET = struct.Struct("=I")
_TICKETS = getattr(select, "PIPE_BUF", 512) // _TICKET.size

# Set while a fork_map call runs its items, in the caller and in every child:
# a call made then runs serially.
_inside = contextvars.ContextVar("veritag_workers_inside", default=False)


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def processes(jobs: int | None, items: int) -> int:
    """How many processes ``fork_map`` runs ``items`` items in, the caller
    included: ``min(jobs, usable CPUs, items)``, where ``jobs=None`` means
    the usable CPUs. At most one inside another ``fork_map`` call, while
    another thread runs (a child forked while a thread holds a lock can
    hang), or without ``os.fork``."""
    if jobs is not None and jobs < 1:
        raise ConfigError("jobs must be >= 1")
    if _inside.get() or not hasattr(os, "fork") or threading.active_count() > 1:
        return min(1, items)
    cpus = _usable_cpus()
    return min(jobs or cpus, cpus, items)


def fork_map(fn: Callable, items: Sequence, jobs: int | None = None) -> list:
    """``[fn(item) for item in items]`` as the caller computes it, using
    ``processes(jobs, len(items))`` processes; see the module docstring.

    Each process stops at its first exception and leaves that item
    unreported, and the caller then runs every unreported item itself, in
    item order. So a failure is raised as a serial loop would raise it, and
    an item that raises runs twice. A child that dies, or cannot write or
    pickle what it reports, costs only time, and so does a process that
    cannot be forked or whose temporary file cannot be opened. Calls that
    ``fn`` makes run serially, wherever it runs. No child outlives the
    call."""
    n = processes(jobs, len(items))
    token = _inside.set(True)
    try:
        done = _round(fn, items, n) if n > 1 else {}
        return [done[i] if i in done else fn(item) for i, item in enumerate(items)]
    finally:
        _inside.reset(token)


def _work(fn: Callable, items: Sequence, cuts: Sequence[int], queue: int,
          report: Callable) -> None:
    """Run the items of each ticket taken from the queue and report each
    value, until the queue is empty or an item or its report fails."""
    while ticket := os.read(queue, _TICKET.size):
        (t,) = _TICKET.unpack(ticket)
        for i in range(cuts[t], cuts[t + 1]):
            try:
                report(i, fn(items[i]))
            except Exception:  # the caller runs the item again
                return


def _round(fn: Callable, items: Sequence, n: int) -> dict:
    """The values that the ``n`` processes report, by item index."""
    tickets = min(len(items), _TICKETS)
    cuts = [len(items) * t // tickets for t in range(tickets + 1)]
    done: dict = {}
    files = []  # one per fork tried, closed when the call ends
    children = {}  # pid -> the file its values go to
    queue, feed = os.pipe()
    try:
        try:
            os.write(feed, b"".join(map(_TICKET.pack, range(tickets))))
        finally:
            os.close(feed)  # an empty queue now reads as the end
        _flush_stdio()  # else a child would write the caller's buffered output again
        for _ in range(1, n):
            try:
                files.append(out := tempfile.TemporaryFile())
                pid = os.fork()
            except OSError:  # out of files, processes or memory: the others take its items
                break
            if pid == 0:  # the child leaves only through os._exit
                try:
                    _work(fn, items, cuts, queue,
                          lambda i, value: out.write(pickle.dumps((i, value))))
                    out.flush()
                    _flush_stdio()
                finally:
                    os._exit(0)
            children[pid] = out
        _work(fn, items, cuts, queue, done.__setitem__)
        for pid in list(children):
            os.waitpid(pid, 0)
            out = children.pop(pid)
            with contextlib.suppress(Exception):  # the end, or a record cut short or not loadable
                out.seek(0)
                while True:
                    i, value = pickle.load(out)
                    done[i] = value
    finally:
        for pid in children:
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):  # reaped already
                pass
        for out in files:
            out.close()
        os.close(queue)
    return done


def _flush_stdio() -> None:
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()
