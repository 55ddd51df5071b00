"""``fork_map`` returns what running the jobs in turn in this process returns, on any number of workers."""

import gc
import os
import pickle
import select
import signal
import subprocess
import sys
import threading
import time

import pytest

from argex.errors import ConfigError, ConsistencyError, EmptyPrototypeError, OutOfVocabularyError
from argex.pool import fork_map, map_jobs

from conftest import REPO_ROOT


def square(job):
    return job * job


def wait_for(fd: int) -> bytes:
    """One byte from ``fd``; fails the test rather than hang when none comes within a minute."""
    assert select.select([fd], [], [], 60)[0], "no worker took a job"
    return os.read(fd, 1)


@pytest.mark.parametrize("workers", [1, 2, 3, 9])
def test_results_come_back_in_job_order(workers):
    order = [4, 0, 3, 1, 2]  # the order the workers take them
    collector = (gc.isenabled(), gc.get_freeze_count())
    assert list(fork_map(square, order, workers)) == [0, 1, 4, 9, 16]
    assert (gc.isenabled(), gc.get_freeze_count()) == collector


def test_the_workers_share_the_jobs():
    # a two-way hand-shake: each job says it has started, then waits until the other has, so no job ends
    # before both processes hold one, and neither process can take both
    parent = os.getpid()
    started = [os.pipe(), os.pipe()]

    def job(index):
        os.write(started[index][1], b"x")
        wait_for(started[1 - index][0])
        return os.getpid()

    try:
        pids = list(fork_map(job, [0, 1], 2))
    finally:
        for fd in (fd for pipe in started for fd in pipe):
            os.close(fd)
    assert parent in pids and len(set(pids)) == 2


def test_every_job_runs_once_with_more_workers_than_cores():
    ran = os.pipe()

    def job(index):
        os.write(ran[1], b"x")
        return index * index

    try:
        assert list(fork_map(job, range(256)[::-1], len(os.sched_getaffinity(0)) + 6)) == [i * i for i in range(256)]
        os.set_blocking(ran[0], False)
        assert len(os.read(ran[0], 1024)) == 256
    finally:
        os.close(ran[0])
        os.close(ran[1])


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_the_first_job_that_raised_is_raised_at_its_turn(workers):
    def job(index):
        if index in (2, 3):
            raise ConfigError(f"job {index} failed")
        return index

    results = fork_map(job, [3, 2, 1, 0], workers)
    assert [next(results), next(results)] == [0, 1]
    with pytest.raises(ConfigError, match="^job 2 failed$"):
        next(results)


@pytest.mark.parametrize("how, message", [
    (lambda: os.kill(os.getpid(), signal.SIGKILL), f"was killed by signal {int(signal.SIGKILL)}"),
    (lambda: os._exit(3), "exited with status 3"),
    (lambda: (lambda: None), "exited with status 1"),  # a result that does not pickle
], ids=["killed", "exited", "unpicklable"])
def test_a_worker_that_sends_no_result_is_a_consistency_error(how, message):
    parent = os.getpid()
    ready = os.pipe()

    def job(index):
        if os.getpid() != parent:
            os.write(ready[1], b"x")
            return how()
        wait_for(ready[0])
        return index

    try:
        with pytest.raises(ConsistencyError, match=f"^no result for job [01]: worker process [0-9]+ {message}$"):
            list(fork_map(job, [0, 1], 2))
    finally:
        os.close(ready[0])
        os.close(ready[1])


@pytest.fixture
def forks(monkeypatch):
    """The number of workers each call forks; ``os.fork`` is otherwise the real one."""
    made = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            made.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return made


@pytest.mark.parametrize("cores, jobs, forked", [(1, 5, 0), (4, 1, 0), (4, 2, 1), (4, 9, 3), (2, 2, 1)])
def test_map_jobs_forks_one_worker_per_further_core_and_at_most_one_per_job(monkeypatch, forks, cores, jobs, forked):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    assert list(map_jobs(square, range(jobs)[::-1])) == [i * i for i in range(jobs)]
    assert len(forks) == forked


def test_map_jobs_forks_nothing_beside_another_thread(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked beside a thread"))
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(60,))
    thread.start()
    try:
        assert list(map_jobs(square, [1, 0])) == [0, 1]
    finally:
        release.set()
        thread.join(60)


def test_map_jobs_on_one_worker_runs_each_job_at_its_turn(monkeypatch):
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("one worker forked"))
    ran = []

    def job(index):
        ran.append(index)
        if index == 1:
            raise ConfigError("job 1 failed")
        return index

    results = map_jobs(job, [2, 1, 0], 1)
    assert next(results) == 0 and ran == [0]
    with pytest.raises(ConfigError, match="^job 1 failed$"):
        next(results)
    assert ran == [0, 1]  # the job after the one that raised never ran


def test_errors_made_from_a_value_pickle_as_they_were_made():
    for error in (OutOfVocabularyError("zebra-n"), EmptyPrototypeError(("arrest-v", "obj"))):
        copy = pickle.loads(pickle.dumps(error))
        assert (type(copy), str(copy), copy.args) == (type(error), str(error), error.args)



def test_a_worker_takes_no_job_once_its_caller_is_gone(tmp_path):
    # the caller dies on its first job; its worker ends the job it holds and takes no other
    log = tmp_path / "jobs.log"
    script = (
        "import os, signal, sys, time\n"
        "from argex.pool import fork_map\n"
        "caller = os.getpid()\n"
        "def job(index):\n"
        "    if os.getpid() == caller:\n"
        "        time.sleep(0.2)\n"  # the worker holds a job by now
        "        os.kill(caller, signal.SIGKILL)\n"
        f"    with open({str(log)!r}, 'a') as fh:\n"
        "        fh.write(f'{os.getpid()} {index}\\n')\n"
        "    time.sleep(0.3)\n"
        "list(fork_map(job, range(20), 2))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.join(REPO_ROOT, "src")}
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, timeout=60)
    assert result.returncode == -signal.SIGKILL
    time.sleep(1.5)  # five more jobs' time, had the worker gone on
    assert len(log.read_text().splitlines()) <= 2
