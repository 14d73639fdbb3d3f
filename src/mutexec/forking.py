"""The package's one fork, ``Child``: sampling lanes and the bundled
executor child are each a child process whose program is a function."""

from __future__ import annotations

import gc
import os
import signal
import threading


def may_fork() -> bool:
    """Whether a child may be forked from this process: the platform has
    ``os.fork`` and this is the only thread.  A fork copies the calling
    thread alone, so a lock that another thread holds would stay held in the
    child for good (and from Python 3.12 on ``os.fork`` warns then)."""
    return hasattr(os, "fork") and threading.active_count() == 1


class Child:
    """``run()`` in a forked child, with the parent side of
    ``subprocess.Popen(stdin=PIPE, stdout=PIPE)``.

    The child first freezes the collector, so none of this process's
    objects is collected or finalized there.  Its ends of the pipes become
    fds 0 and 1, fd 2 is /dev/null and every other fd is closed.  Then it
    calls ``run()`` and ends with ``os._exit(0)``, or ``os._exit(1)`` if
    ``run`` raised, without returning into this process's frames."""

    def __init__(self, run):
        stdin_r, stdin_w = os.pipe()
        stdout_r, stdout_w = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (stdin_r, stdin_w, stdout_r, stdout_w):
                os.close(fd)
            raise
        if self.pid == 0:
            status = 1
            try:
                gc.freeze()
                os.dup2(stdin_r, 0)
                os.dup2(stdout_w, 1)
                devnull = os.open(os.devnull, os.O_RDWR)
                os.dup2(devnull, 2)
                os.closerange(3, os.sysconf("SC_OPEN_MAX"))
                run()
                status = 0
            finally:
                os._exit(status)
        os.close(stdin_r)
        os.close(stdout_w)
        self.returncode: int | None = None
        self.stdin = open(stdin_w, "wb")
        self.stdout = open(stdout_r, "rb")

    def _reap(self, flags: int) -> None:
        try:
            pid, status = os.waitpid(self.pid, flags)
        except ChildProcessError:  # reaped elsewhere, as Popen takes it
            pid, status = self.pid, 0
        if pid:
            self.returncode = os.waitstatus_to_exitcode(status)

    def poll(self) -> int | None:
        if self.returncode is None:
            self._reap(os.WNOHANG)
        return self.returncode

    def wait(self) -> int:
        if self.returncode is None:
            self._reap(0)
        return self.returncode

    def kill(self) -> None:
        if self.returncode is None:
            os.kill(self.pid, signal.SIGKILL)
