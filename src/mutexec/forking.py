"""When this process may fork a child that runs package code."""

from __future__ import annotations

import os
import threading


def may_fork() -> bool:
    """Whether a child may be forked from this process: the platform has
    ``os.fork`` and this is the only thread.  A fork copies the calling
    thread alone, so a lock that another thread holds would stay held in the
    child for good (and from Python 3.12 on ``os.fork`` warns then)."""
    return hasattr(os, "fork") and threading.active_count() == 1
