"""I/O and traversal statistics shared across the storage and index layers.

The counters are deliberately simple integers on a plain object: benchmarks
reset them, run a query, and read them back.  They are the reproduction's
stand-in for the paper's "number of disk accesses" measurements.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class IOStats:
    """Mutable counter bundle for storage and index operations.

    Attributes:
        page_reads: physical page reads (buffer-pool misses).
        page_writes: physical page writes (evictions of dirty pages and
            explicit flushes).
        buffer_hits: logical page reads served from the buffer pool.
        node_reads: R-tree nodes materialised from the store (logical).
        node_writes: R-tree nodes written back to the store (logical).
        distance_computations: distance evaluations *attempted* during
            post-processing or sequential scans (whether or not early
            abandoning cut one short).
        candidate_count: number of index candidates produced before
            post-processing (used to measure filter selectivity / Lemma 1).
        verifications_completed: post-processing verifications that ran to a
            full distance.  Under early abandoning (range queries, method-*b*
            scans) this means the candidate was within ``eps``; paths that
            always compute full distances (k-NN, the index/tree joins) count
            every candidate here.
        verifications_abandoned: post-processing verifications stopped early
            because the partial sum already exceeded ``eps**2``.
    """

    page_reads: int = 0
    page_writes: int = 0
    buffer_hits: int = 0
    node_reads: int = 0
    node_writes: int = 0
    distance_computations: int = 0
    candidate_count: int = 0
    verifications_completed: int = 0
    verifications_abandoned: int = 0
    extra: dict[str, int] = field(default_factory=dict)

    def reset(self) -> None:
        """Zero every counter (including the free-form ``extra`` map)."""
        self.page_reads = 0
        self.page_writes = 0
        self.buffer_hits = 0
        self.node_reads = 0
        self.node_writes = 0
        self.distance_computations = 0
        self.candidate_count = 0
        self.verifications_completed = 0
        self.verifications_abandoned = 0
        self.extra.clear()

    @property
    def disk_accesses(self) -> int:
        """Total physical page operations — the paper's headline I/O metric."""
        return self.page_reads + self.page_writes

    @property
    def logical_reads(self) -> int:
        """All page read requests, whether served from buffer or disk."""
        return self.page_reads + self.buffer_hits

    def bump(self, key: str, amount: int = 1) -> None:
        """Increment a free-form named counter in :attr:`extra`."""
        self.extra[key] = self.extra.get(key, 0) + amount

    def snapshot(self) -> dict[str, int]:
        """Return a plain-dict copy of every counter, for reporting."""
        out = {
            "page_reads": self.page_reads,
            "page_writes": self.page_writes,
            "buffer_hits": self.buffer_hits,
            "node_reads": self.node_reads,
            "node_writes": self.node_writes,
            "distance_computations": self.distance_computations,
            "candidate_count": self.candidate_count,
            "verifications_completed": self.verifications_completed,
            "verifications_abandoned": self.verifications_abandoned,
            "disk_accesses": self.disk_accesses,
        }
        out.update(self.extra)
        return out

    def __sub__(self, other: "IOStats") -> dict[str, int]:
        """Difference of two snapshots taken from the same counter object."""
        mine, theirs = self.snapshot(), other.snapshot()
        return {k: mine.get(k, 0) - theirs.get(k, 0) for k in mine}
