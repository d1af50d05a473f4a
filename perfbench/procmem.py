"""Peak memory of a process tree, sampled from ``/proc``.

The tree is this process and all its descendants (Ray's GCS, raylet and
workers, or the server).  Each sample sums the proportional set size (PSS)
of every process, so pages shared between processes (Ray's object store,
shared libraries) count once in total.
"""

from __future__ import annotations

import os
import threading


def descendants(root: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as fp:
                stat = fp.read()
        except OSError:
            continue
        ppid = int(stat[stat.rindex(")") + 2:].split()[1])
        children.setdefault(ppid, []).append(int(name))
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, []))
    return out


def pss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/smaps_rollup") as fp:
            for line in fp:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_pss_mb(root: int) -> float:
    return sum(pss_kb(p) for p in descendants(root)) / 1024.0


class PeakSampler:
    """Samples the tree's PSS every ``interval`` seconds on a thread."""

    def __init__(self, root: int | None = None, interval: float = 0.5):
        self.root = root or os.getpid()
        self.interval = interval
        self.peak_mb = 0.0
        self._lock = threading.Lock()  # sample() runs on the caller's thread too
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def sample(self) -> float:
        """Take a sample now; returns the peak so far."""
        mb = tree_pss_mb(self.root)
        with self._lock:
            self.peak_mb = max(self.peak_mb, mb)
            return self.peak_mb

    def _run(self) -> None:
        while True:
            self.sample()
            if self._stop.wait(self.interval):
                return

    def __enter__(self) -> "PeakSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=10)
        self.sample()
