"""Process launcher for the benchmark's command runs, and the host-speed
reference the benchmark normalises wall time by.

Linux reports a child's peak RSS as at least the RSS of the process that
forked it, so commands forked from the benchmark process (which holds the
set-up data) would report its memory.  This small process forks them
instead.  It reads one JSON request per stdin line,
``{"argv", "cwd", "env", "out", "err", "limit_s", "sample"}``, runs the
command to completion, and answers with
``{"wall_s", "rss_mb", "code", "references"}``.

With ``sample`` set, every ``SAMPLE_INTERVAL_S`` while the command runs the
launcher stops it, times the reference work, and resumes it; ``wall_s``
excludes those pauses.  Stopping the command keeps the reference from
competing with it, so each sample sees the host as the command did just
before.
"""

from __future__ import annotations

import io
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
import tokenize

SAMPLE_INTERVAL_S = 1.0

# Fixed stdlib-only work (tokenize, JSON, regex: what the CLI spends its time
# on).  Shared hosts drift by +-30% over tens of seconds, which no number of
# repetitions averages out; dividing by this removes most of that drift.
_REFERENCE_TEXT = "\n".join(
    f"def f{i}(a1, a2):\n    v = [x * {i} for x in a1 if x > {i % 5}]\n    return v + a2[:{i}]"
    for i in range(60))


def reference_s() -> float:
    """Median of three timings of the reference work."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        tokens = list(tokenize.generate_tokens(io.StringIO(_REFERENCE_TEXT).readline))
        json.loads(json.dumps([[t.type, t.string, t.start] for t in tokens]))
        re.findall(r"\w+\(", _REFERENCE_TEXT)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _sample_while_running(pidfd: int, done: threading.Event, references: list[float],
                          pauses: list[tuple[float, float]]) -> None:
    while not done.wait(SAMPLE_INTERVAL_S):
        try:
            signal.pidfd_send_signal(pidfd, signal.SIGSTOP)
        except ProcessLookupError:  # reaped since the last wait
            return
        start = time.perf_counter()
        references.append(reference_s())
        signal.pidfd_send_signal(pidfd, signal.SIGCONT)
        pauses.append((start, time.perf_counter()))


def run(request: dict) -> dict:
    references: list[float] = []
    pauses: list[tuple[float, float]] = []
    with open(request["out"], "wb") as out, open(request["err"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], cwd=request["cwd"], env=request["env"],
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        pidfd = os.pidfd_open(proc.pid)
        done = threading.Event()
        sampler = None
        if request["sample"]:
            sampler = threading.Thread(target=_sample_while_running,
                                       args=(pidfd, done, references, pauses))
            sampler.start()
        timer = threading.Timer(request["limit_s"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            end = time.perf_counter()
            timer.cancel()
            done.set()
            if sampler is not None:
                sampler.join()
            os.close(pidfd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    paused = sum(max(0.0, min(stop, end) - begin) for begin, stop in pauses)
    return {"wall_s": end - start - paused, "rss_mb": usage.ru_maxrss / 1024.0,
            "code": proc.returncode, "references": references}


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
