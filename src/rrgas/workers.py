"""The one fork policy: a worker process over a pipe, and calls run side by side.

rrgas runs work beside the calling process in forked workers: the
writer of `rrgas run`'s snapshots and diagnostics rows, the temporal
study of `rrgas mms` and all but the first chunk of `rrgas sweep
--jobs N`.  Each of them forks
where `may_fork` says so, and does the same work in process, with the
same output, where it does not.  A forked worker needs nothing pickled
to start (an MmsCase holds closures, which could not be) and sees every
module as the caller left it, wrappers set on module attributes
included.  The fork is safe: rrgas starts no thread, and OpenBLAS shuts
its thread pool down at a fork (a pthread_atfork handler) and starts it
again when next called.
"""

from __future__ import annotations

import multiprocessing
import os
import signal

CAN_FORK = "fork" in multiprocessing.get_all_start_methods()


def may_fork() -> bool:
    """Whether work may run in a forked worker beside this process: where
    the platform forks and this process may run on more than one CPU.
    Where `os.sched_getaffinity` is missing (macOS, say), it may not.
    Read at each call, so it follows the CPUs the process is given."""
    return CAN_FORK and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1


class Worker:
    """body(conn) in one forked daemon process, over one duplex pipe.

    The caller talks to the body over `conn`, its own end.  The worker
    ignores SIGINT, which reaches the whole process group on ^C, so it
    ends when the caller ends it or its body returns; it then sends back
    the body's return value, or the exception the body raised.
    """

    def __init__(self, body, label: str):
        ctx = multiprocessing.get_context("fork")
        self.conn, theirs = ctx.Pipe()
        self._label = label
        self._process = ctx.Process(target=_run, args=(body, theirs, self.conn), daemon=True)
        try:
            self._process.start()
        finally:
            theirs.close()  # the worker's end; EOF on ours once it exits

    def result(self, terminate: bool = False):
        """The body's return value; the exception it raised is raised here.

        The worker is closed on every path (see close), terminated first
        if terminate; one that has reported is exiting anyway.  A worker
        that exits without reporting is an OSError naming its exit code.
        """
        died = False
        try:
            outcome = self.conn.recv()
        except (EOFError, OSError):
            died = True
        finally:
            self.close(terminate)
        if died:
            raise OSError(f"{self._label} exited with code {self._process.exitcode} "
                          "before reporting")
        if isinstance(outcome, Exception):
            raise outcome from None  # a cause or context stayed in the worker
        return outcome

    def close(self, terminate: bool = False) -> None:
        """Closes the caller's end of the pipe and joins the worker,
        terminated first if terminate.  A body still reading the pipe
        sees EOF.  Closing twice does nothing more."""
        self.conn.close()
        if terminate:
            self._process.terminate()
        self._process.join()


def _run(body, conn, other) -> None:
    """The worker's process: body(conn), then its outcome to the caller."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    other.close()  # the caller's end
    try:
        outcome = body(conn)
    except Exception as exc:
        outcome = exc
    try:
        conn.send(outcome)
    except OSError:
        pass  # the caller closed its end: no one reads the outcome


def in_parallel(calls, label: str) -> list:
    """[call() for call in calls], the first call in this process and
    each other one in a Worker named label, where may_fork; else every
    call here, in turn.

    The first call's exception comes first, then the workers', in
    order.  Every worker is ended and joined before this returns or
    raises, a KeyboardInterrupt included.
    """
    if not may_fork():
        return [call() for call in calls]
    workers = []
    try:
        for call in calls[1:]:
            workers.append(Worker(lambda conn, call=call: call(), label))
        first = calls[0]()
        return [first] + [worker.result(terminate=True) for worker in workers]
    finally:
        for worker in workers:
            worker.close(terminate=True)
