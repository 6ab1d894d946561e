"""Fetch target queue (FTQ).

The FTQ decouples the branch-prediction unit from the fetch engine: the BPU
pushes one basic-block fetch region per cycle at the tail; the fetch engine
drains from the head; the prefetch engine scans newly pushed entries. Deep
FTQs (32 entries) are what let FDIP/Boomerang run far ahead of fetch; the
no-prefetch baseline uses a shallow one that models an ordinary coupled
fetch buffer.

Entries are engine-defined tuples; the FTQ only manages capacity, ordering
and the prefetch-scan watermark. The pipeline stages bind the backing
deque :attr:`FetchTargetQueue.entries` once and work on it directly, one
Python call less per basic block. That is the one stated way stages touch
the queue:

* the BPU appends at the tail and bumps :attr:`FetchTargetQueue.pushed`
  by one per entry, and only while ``len(entries) < depth`` (its tick
  gate), so the capacity bound holds without ``push``'s check;
* fetch pops the head with ``entries.popleft()``;
* the prefetch engine only reads entries newer than its ``pushed``
  watermark;
* the squash unit empties the queue with :meth:`FetchTargetQueue.flush`,
  which also counts the flush.

``push``/``pop`` do the same with checks, for tests and tools.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator


class FetchTargetQueue:
    """Bounded FIFO of fetch regions with a prefetch-scan cursor."""

    def __init__(self, depth: int):
        if depth < 1:
            raise ValueError("FTQ depth must be >= 1")
        self.depth = depth
        #: Backing deque, oldest entry first (see the module docstring for
        #: how stages may touch it).
        self.entries: deque = deque()
        #: Count of entries ever pushed; the prefetch engine keeps its own
        #: watermark against this to scan each entry exactly once.
        self.pushed = 0
        self.flushes = 0

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.entries)

    @property
    def full(self) -> bool:
        return len(self.entries) >= self.depth

    @property
    def empty(self) -> bool:
        return not self.entries

    def push(self, entry: tuple) -> None:
        if len(self.entries) >= self.depth:
            raise OverflowError("push on full FTQ")
        self.entries.append(entry)
        self.pushed += 1

    def pop(self) -> tuple:
        """Remove and return the head entry (fetch engine side)."""
        return self.entries.popleft()

    def peek(self) -> tuple | None:
        return self.entries[0] if self.entries else None

    def flush(self) -> int:
        """Drop everything (squash); returns how many entries were dropped."""
        dropped = len(self.entries)
        self.entries.clear()
        self.flushes += 1
        return dropped
