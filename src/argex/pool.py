"""Run a command's independent jobs on forked worker processes.

``fork_map(run, order, workers)`` yields ``run(i)`` for every job ``i``,
in index order, and raises what a job raised at that job's turn, as if
the jobs ran one after another in this process. ``map_jobs`` picks the
number of workers by one rule for every command, and runs the jobs in
turn when one worker is all there is.

The caller is one worker and forks the others. This module leaves the
collector alone: a child inherits the caller's, which ``argex.cli.entry``
turns off, so no collection in a child touches (and copies) the pages
it inherited. Job indices wait in a pipe, one byte each, in ``order``;
every worker reads one byte at a time until the pipe is empty. A child
keeps each job's result or exception, then sends them all, pickled,
down a pipe of its own and ends with ``os._exit``: it runs none of the
caller's cleanup. A child whose caller has died takes no further job.
The caller reads every child's pipe to its end and reaps every child.
A job of a child that ended without sending its results (killed, or
its results would not pickle) is a ``ConsistencyError`` at that job's
turn.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import sys
from typing import Callable, Iterator, Sequence, TypeVar

from .errors import ConsistencyError

T = TypeVar("T")


def map_jobs(run: Callable[[int], T], order: Sequence[int], workers: int | None = None) -> Iterator[T]:
    """``run(i)`` for each job ``i``, in index order, on ``workers`` processes; each job in turn on one.

    ``workers`` defaults to one per core this process may run on, at most
    one per job, and to one while the process runs another thread: a
    forked child would inherit the locks that thread holds, held.
    """
    if workers is None:
        threading = sys.modules.get("threading")
        cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
        workers = 1 if threading and threading.active_count() > 1 else min(cores, len(order))
    if workers > 1:
        return fork_map(run, order, workers)
    return map(run, range(len(order)))  # each job runs as its turn comes


def fork_map(run: Callable[[int], T], order: Sequence[int], workers: int) -> Iterator[T]:
    """``run(i)`` for ``i`` in ``range(len(order))``, on this process and ``workers - 1`` forked ones.

    ``order`` lists the job indices, at most 256, in the order the workers
    take them: longest first keeps the last job short. Every job runs
    before the first result comes back; what each returned or raised
    comes at its turn.
    """
    outcomes, lost = _forked(run, order, workers)
    for index in range(len(order)):
        if index not in outcomes:
            raise ConsistencyError(f"no result for job {index}: {'; '.join(lost)}")
        raised, value = outcomes[index]
        if raised:
            raise value
        yield value


def _work(run: Callable[[int], object], queue: int, outcomes: dict, caller: int | None = None) -> None:
    """Take job indices from ``queue`` until it is empty; record each (raised, result or exception).

    A child passes its ``caller``'s pid, and takes no job once the caller
    is gone: a killed run leaves no worker scoring the rest of its jobs.
    """
    while (caller is None or os.getppid() == caller) and (job := os.read(queue, 1)):
        try:
            outcomes[job[0]] = (False, run(job[0]))
        except Exception as exc:
            outcomes[job[0]] = (True, exc)


def _child(run: Callable[[int], object], queue: int, out: int, inherited: list[int], caller: int) -> None:
    code = 1
    try:
        for fd in inherited:  # the other children's pipes: their ends must follow their own writers
            os.close(fd)
        outcomes: dict = {}
        _work(run, queue, outcomes, caller)
        data = memoryview(pickle.dumps(outcomes, pickle.HIGHEST_PROTOCOL))
        while data:
            data = data[os.write(out, data):]
        code = 0
    finally:
        os._exit(code)


def _read_to_end(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


def _forked(run: Callable[[int], object], order: Sequence[int], workers: int) -> tuple[dict, list[str]]:
    """Every job's (raised, value) that came back, and how each child that sent none ended.

    The children fork with the collector as the caller has it.
    """
    indices = bytes(order)
    queue, jobs = os.pipe()
    try:
        os.write(jobs, indices)
    finally:
        os.close(jobs)
    caller = os.getpid()
    children: dict[int, int] = {}  # pid -> the read end of its results pipe
    outcomes: dict = {}
    lost = []
    sys.stdout.flush()
    sys.stderr.flush()
    try:
        for _ in range(workers - 1):
            results, out = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no more processes: the workers there are take every job
                os.close(results)
                os.close(out)
                break
            if pid == 0:
                _child(run, queue, out, [results, *children.values()], caller)
            os.close(out)
            children[pid] = results
        _work(run, queue, outcomes)
        for pid in list(children):
            data = _read_to_end(children[pid])
            _, status = os.waitpid(pid, 0)  # at the end of its pipe, a child is exiting
            os.close(children.pop(pid))
            code = os.waitstatus_to_exitcode(status)
            if code == 0:
                try:
                    outcomes.update(pickle.loads(data))
                    continue
                except Exception as exc:
                    how = f"sent results that do not load ({exc!r})"
            else:
                how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
            lost.append(f"worker process {pid} {how}")
    finally:
        os.close(queue)
        for pid, results in children.items():  # left only when this process was interrupted
            os.close(results)
            with contextlib.suppress(OSError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return outcomes, lost
