"""Peak resident memory of this process and all its descendants.

The JVM that PySpark launches is a child of this process and the Python
workers are children of the JVM, so the tree rooted here holds all of the
engine's memory. ``VmRSS`` is summed over the tree at a fixed interval.
"""
from __future__ import annotations

import os
import threading

INTERVAL_S = 0.1


def _children() -> dict[int, list[int]]:
    out: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        ppid = int(stat[stat.rindex(")") + 2 :].split()[1])
        out.setdefault(ppid, []).append(int(entry))
    return out


def descendants() -> list[int]:
    """This process and every process below it."""
    kids = _children()
    todo = [os.getpid()]
    out: list[int] = []
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(kids.get(pid, []))
    return out


def tree_rss_kb() -> int:
    total = 0
    for pid in descendants():
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmRSS:"):
                        total += int(line.split()[1])
                        break
        except OSError:
            continue
    return total


class PeakRss:
    """``with PeakRss() as p: ...; p.peak_mb`` samples the tree in a thread."""

    def __enter__(self) -> "PeakRss":
        self.peak_kb = tree_rss_kb()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()
        return self

    def _sample(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            self.peak_kb = max(self.peak_kb, tree_rss_kb())

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.peak_kb = max(self.peak_kb, tree_rss_kb())

    @property
    def peak_mb(self) -> float:
        return self.peak_kb / 1024.0
