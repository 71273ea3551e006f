"""A fixed reference kernel that measures how fast the host is right now.

The benchmark runs on shared hosts whose speed wanders by tens of percent
over seconds and minutes (a pure-Python loop timed here took anything from
85 to 180 ms), which no amount of repetition inside one run averages out.
So each timed repetition is cut into slices of simulated time and this
kernel is run between slices; the workload's time is then reported
relative to the kernel's, through the same weather.  The kernel uses the
standard library only — no line of ``src/repro`` — so a change to the
simulator moves the workload's time and leaves the yardstick alone.  Its
mix (slotted objects, a tuple heap, a dict keyed by ``IPv4Address``, MD5)
is the simulator's own, so interference slows both alike.
"""

from __future__ import annotations

import hashlib
import heapq
from ipaddress import IPv4Address

#: Seconds one warm :func:`kernel` call takes on the 2-core reference box
#: when nothing else runs.  ``wall_s`` is scaled by this, so on that box at
#: that speed it reads in plain seconds.
NOMINAL_SECONDS = 0.00031


class _Cell:
    __slots__ = ("index", "address", "peer")

    def __init__(self, index, address, peer):
        self.index = index
        self.address = address
        self.peer = peer


# Everything the kernel touches exists before it runs: it allocates nothing
# that lives past a statement and nothing the garbage collector tracks, so
# neither the collector nor the state of the workload's heap can slow it.
_CELLS = [_Cell(i, IPv4Address(i * 2654435761 % (1 << 32)), None) for i in range(512)]
_TABLE = {cell.address: cell for cell in _CELLS}
_ENTRIES = [(cell.index * 7919 % 1000, cell.index, cell.address) for cell in _CELLS]
_BLOCK = bytes(80)
_HEAP: list = []


def kernel() -> int:
    """One fixed unit of simulator-like work (under half a millisecond)."""
    heap, table = _HEAP, _TABLE
    push, pop, md5 = heapq.heappush, heapq.heappop, hashlib.md5
    heap.clear()
    for entry in _ENTRIES:
        push(heap, entry)
        cell = table[entry[2]]
        cell.peer = entry
        if cell.index & 1:
            table.get(pop(heap)[2])
        if not cell.index & 7:
            md5(_BLOCK).digest()
    return len(heap)
