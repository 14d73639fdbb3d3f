import os

import pytest

from mutexec.forking import Child


def fail():
    raise ValueError("run raised")


def stderr_is_devnull():
    if not os.path.samestat(os.fstat(2), os.stat(os.devnull)):
        raise AssertionError("fd 2 is not /dev/null")


class TestChild:
    """The parent side of ``forking.Child``; the sampling lanes and the
    bundled executor child are tested where they are used."""

    @pytest.mark.parametrize("run, code", [(stderr_is_devnull, 0), (fail, 1)],
                             ids=["returns", "raises"])
    def test_exit_status(self, run, code):
        child = Child(run)
        assert child.wait() == code
        assert child.poll() == code
        child.stdin.close()
        child.stdout.close()

    def test_reaped_elsewhere(self):
        child = Child(lambda: None)
        os.waitpid(child.pid, 0)
        assert child.wait() == 0
        child.stdin.close()
        child.stdout.close()
