"""Run one call in a forked child while the calling process goes on with other work.

Three callers do so:

- ``fit_bivariate`` fits marginal 2 in the child while marginal 1 is fitted
  in the calling process;
- ``simulate`` formats the second half of its rows in the child while the
  parent writes the first half;
- ``eval`` does it twice. ``load_csv`` parses the second half of the file's
  data lines in the child while the parent parses the first half, and
  Kendall tau runs in the child while the parent computes the
  log-likelihood, the KS statistics and the density overlays.

The two forks of ``eval`` apply from ``FORK_MIN_ROWS`` rows up, and the
fork of ``simulate`` from ``SIMULATE_FORK_MIN_ROWS`` rows up; on fewer rows,
as where ``os.fork`` does not exist, the work runs in the calling process.
"""

from __future__ import annotations

import contextlib
import functools
import os
import pickle

# One fork and reap costs 3.5-8 ms on a 2-vCPU Xeon (Python 3.11, numpy 2.4). Below this many rows, the work a child
# would take off the calling process, half of a CSV parse or a Kendall tau, saves too little to pay for it.
FORK_MIN_ROWS = 32_768
# simulate's child formats half of the rows. In alternating in-process runs of simulate with and without its fork
# (30-40 of each per size, same host) the fork was faster in 12-13 of 30-40 runs at 4 000 rows, in about half at
# 5 000-6 000, and 24.4 against 29.4 ms (median) at 7 263, the paper's sample size, which must keep forking.
SIMULATE_FORK_MIN_ROWS = 5_000


def _child_main(wfd, fn, args):
    """Body of a forked child: send ``fn(*args)``'s outcome down ``wfd`` and exit without unwinding."""
    code = 1
    try:
        try:
            outcome = (True, fn(*args))
        except BaseException as exc:  # the parent raises it
            outcome = (False, exc)
        try:
            data = pickle.dumps(outcome)
            pickle.loads(data)  # an exception whose constructor cannot be replayed fails here, not in the parent
        except Exception:
            data = pickle.dumps((False, RuntimeError(repr(outcome[1]))))
        with os.fdopen(wfd, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)  # never return into the caller's stack, its finally blocks or atexit


def _forks(rows=None, min_rows=None):
    """Whether ``_forked`` forks for a call on ``rows`` rows: where ``os.fork`` exists, from ``min_rows`` up.

    ``min_rows`` defaults to ``FORK_MIN_ROWS``.
    """
    return hasattr(os, "fork") and (rows is None or rows >= (FORK_MIN_ROWS if min_rows is None else min_rows))


@contextlib.contextmanager
def _forked(fn, *args, rows=None, min_rows=None):
    """Start ``fn(*args)`` in a forked child and yield a function that returns its result.

    The result, or the exception the call raised, comes back pickled over a
    pipe; ``fn`` itself never crosses it, so a closure works. Leaving the
    block kills a child whose result was not asked for, and reaps the child
    either way. Where ``os.fork`` does not exist, or where ``rows``, the
    number of rows the call works on, is below ``min_rows`` (default
    ``FORK_MIN_ROWS``), the yielded function makes the call in-process when
    it is asked for the result.
    """
    if not _forks(rows, min_rows):
        yield functools.partial(fn, *args)
        return
    import signal  # here, so that importing the CLI loads no module it did not load before

    rfd, wfd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(rfd)
        os.close(wfd)
        raise
    if pid == 0:
        os.close(rfd)
        _child_main(wfd, fn, args)
    os.close(wfd)
    reaped = False
    try:
        with os.fdopen(rfd, "rb") as pipe:

            def result():
                nonlocal reaped
                data = pipe.read()
                status = os.waitpid(pid, 0)[1]
                reaped = True
                if not data:
                    code = os.waitstatus_to_exitcode(status)
                    raise RuntimeError(f"its process ended without a result (exit code {code})")
                ok, value = pickle.loads(data)  # bytes written by our own child
                if ok:
                    return value
                raise value

            yield result
    finally:
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
