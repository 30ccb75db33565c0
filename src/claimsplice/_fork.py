"""Run one call in a forked child while the calling process goes on with other work.

``fit_bivariate`` fits marginal 2 this way while marginal 1 is fitted in the
calling process, and ``simulate`` formats the second half of its rows this
way while the parent writes the first half.
"""

from __future__ import annotations

import contextlib
import functools
import os
import pickle


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


@contextlib.contextmanager
def _forked(fn, *args):
    """Start ``fn(*args)`` in a forked child and yield a function that returns its result.

    The result, or the exception the call raised, comes back pickled over a
    pipe; ``fn`` itself never crosses it, so a closure works. Leaving the
    block kills a child whose result was not asked for, and reaps the child
    either way. Where ``os.fork`` does not exist, the yielded function makes
    the call in-process.
    """
    if not hasattr(os, "fork"):
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
