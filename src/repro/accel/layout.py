"""Physical placement of the graph arrays in the DRAM address space.

The traffic accounting of Sec. II-B charges three streams: topology (row
pointers ~ |V| per tile, column indices ~ |E|), sequential source
properties, and random temporary-property accesses.  Element sizes follow
the paper's 4 B/8 B vertex data; we use 8 B properties, 8 B row-pointer
entries and 8 B packed edge records (destination id + weight).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PROP_BYTES = 8
PTR_BYTES = 8
EDGE_BYTES = 8


@dataclass(frozen=True)
class MemoryLayout:
    """Base addresses of the graph arrays (1 GB apart by default).

    Only ``vtemp_base`` matters microarchitecturally (random accesses are
    cache-managed); the others are streamed and charged by byte count.
    """

    vtemp_base: int = 0x4000_0000
    vprop_base: int = 0x8000_0000
    indptr_base: int = 0xC000_0000
    edges_base: int = 0x1_0000_0000

    def vtemp_addrs(self, vertex_ids: np.ndarray) -> np.ndarray:
        """Byte addresses of Vtemp[v] for an id array (the random stream)."""
        addrs = np.asarray(vertex_ids, dtype=np.int64) * PROP_BYTES
        addrs += self.vtemp_base  # in place: one pass, one allocation
        return addrs

    def vprop_addrs(self, vertex_ids: np.ndarray) -> np.ndarray:
        """Byte addresses of Vprop[v] (used by edge-centric systems)."""
        return self.vprop_base + np.asarray(vertex_ids, dtype=np.int64) * PROP_BYTES
