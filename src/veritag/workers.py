"""Independent loops in forked processes, with the standard library only.

``fork_map(fn, items, jobs)`` is ``[fn(item) for item in items]``. Up to
``jobs`` processes, the caller included, pull the items' indices from one
queue, a pipe filled before the fork, so a process that finishes early takes
the next item instead of idling. A child reads its items from the memory it
inherited and pickles each result, or the exception its item raised, into its
own unlinked temporary file in ``TMPDIR``, opened just before the fork; the
caller reads that file after the child exits. A file never fills as a pipe
does, so no child waits on the caller. Results come back in item order, and
each call reaps its children before it returns.
"""

from __future__ import annotations

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

from .errors import ConfigError, InvariantError

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
    """``[fn(item) for item in items]`` in ``processes(jobs, len(items))``
    processes; see the module docstring.

    The first failure in item order is raised, as a serial loop would raise
    it: a process stops at its item's exception, and since the queue hands
    items out in order, every item before a failure was taken. An item that
    a child took and never wrote to its file, because the child died, fails
    with an ``InvariantError``. An exception that cannot be pickled back
    becomes an ``InvariantError`` naming it. Calls that ``fn`` makes run
    serially, wherever it runs. A process that cannot be forked, or whose
    temporary file cannot be opened, leaves its items to the others. No
    child outlives the call."""
    n = processes(jobs, len(items))
    token = _inside.set(True)
    try:
        return _round(fn, items, n) if n > 1 else [fn(item) for item in items]
    finally:
        _inside.reset(token)


def _work(fn: Callable, items: Sequence, cuts: Sequence[int], queue: int,
          report: Callable) -> None:
    """Run the items of each ticket taken from the queue and report each
    result, until the queue is empty or an item fails."""
    while ticket := os.read(queue, _TICKET.size):
        (t,) = _TICKET.unpack(ticket)
        for i in range(cuts[t], cuts[t + 1]):
            try:
                result = (True, fn(items[i]))
            except Exception as exc:
                result = (False, exc)
            report(i, result)
            if not result[0]:
                return


def _round(fn: Callable, items: Sequence, n: int) -> list:
    tickets = min(len(items), _TICKETS)
    cuts = [len(items) * t // tickets for t in range(tickets + 1)]
    results: list = [None] * len(items)  # None: not reported
    files = []  # one per fork tried, closed when the call ends
    children = {}  # pid -> the file its results go to
    statuses: list[int] = []
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
                code = 1
                try:
                    _work(fn, items, cuts, queue, lambda i, result: _send(out, i, result))
                    out.flush()
                    _flush_stdio()
                    code = 0
                finally:
                    os._exit(code)
            children[pid] = out
        _work(fn, items, cuts, queue, results.__setitem__)
        for pid in list(children):
            statuses.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
            out = children.pop(pid)
            out.seek(0)
            while True:
                try:
                    i, result = pickle.load(out)
                except (EOFError, pickle.UnpicklingError):  # the end, or a child cut short
                    break
                results[i] = result
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
    for i, result in enumerate(results):
        if result is None:
            died = dict.fromkeys(status for status in statuses if status != 0) or statuses
            raise InvariantError(
                f"worker exited with status {', '.join(map(str, died))} "
                f"before reporting item {i}"
            )
        if not result[0]:
            raise result[1]
    return [value for _, value in results]


def _flush_stdio() -> None:
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()


def _send(out, i: int, result: tuple) -> None:
    """Write one pickled ``(i, result)``; an exception or value that cannot
    make the round trip goes as an ``InvariantError`` naming it."""
    try:
        data = pickle.dumps((i, result))
        if not result[0]:
            pickle.loads(data)
    except Exception as exc:
        error = InvariantError(f"{type(result[1]).__name__}: {result[1]} ({exc})")
        data = pickle.dumps((i, (False, error)))
    out.write(data)
