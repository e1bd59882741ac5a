"""RX steering: RSS and FlowDirector.

Receive Side Scaling hashes each packet's flow key through a
Toeplitz-style hash into an indirection table, spreading *flows* over
RX queues; heavy flows therefore skew per-queue load.  Intel Ethernet
FlowDirector matches flows exactly and can place them deliberately —
the paper observed it "reduces contention in each slice by performing
better load balancing compared to RSS for the campus trace" (§5.2.1),
which is why Figs. 13 and 14 trend differently.

Both steerers operate on hashable flow keys (tuples of header fields),
keeping this module independent of any packet representation.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Sequence

import numpy as np

#: Default RSS indirection-table size (Intel RETA).
RETA_SIZE = 128

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def rss_hash(*fields: int) -> int:
    """32-bit flow hash over integer header fields.

    A Toeplitz hash needs a key and bit-serial multiplication; an
    FNV-1a over the field bytes gives the same operational property —
    a fixed, well-mixing map from flow tuples to 32 bits — at a
    fraction of the cost.
    """
    value = _FNV_OFFSET
    for field in fields:
        while True:
            value = ((value ^ (field & 0xFF)) * _FNV_PRIME) & _MASK64
            field >>= 8
            if not field:
                break
    return (value ^ (value >> 32)) & 0xFFFFFFFF


def rss_hash_array(*field_arrays: np.ndarray) -> np.ndarray:
    """Vectorised :func:`rss_hash` over parallel field arrays.

    Each argument is one header field for every packet; entry *i* of
    the result equals ``rss_hash(fields[0][i], fields[1][i], …)``.
    The per-field byte loop is a do-while (at least one byte, then
    while bits remain), reproduced with a shrinking active mask —
    uint64 multiplication wraps exactly like the scalar ``& _MASK64``.
    """
    if not field_arrays:
        raise ValueError("rss_hash_array needs at least one field array")
    n = len(field_arrays[0])
    value = np.full(n, _FNV_OFFSET, dtype=np.uint64)
    prime = np.uint64(_FNV_PRIME)
    byte_mask = np.uint64(0xFF)
    eight = np.uint64(8)
    for field in field_arrays:
        remaining = np.asarray(field, dtype=np.uint64).copy()
        if len(remaining) != n:
            raise ValueError("field arrays must have equal length")
        active = np.ones(n, dtype=bool)
        while True:
            idx = np.nonzero(active)[0]
            if idx.size == 0:
                break
            chunk = remaining[idx]
            value[idx] = (value[idx] ^ (chunk & byte_mask)) * prime
            chunk >>= eight
            remaining[idx] = chunk
            active[idx] = chunk != 0
    return ((value ^ (value >> np.uint64(32))) & np.uint64(0xFFFFFFFF)).astype(
        np.uint32
    )


class RssSteering:
    """Hash-based flow→queue spreading through an indirection table."""

    def __init__(self, n_queues: int, reta_size: int = RETA_SIZE) -> None:
        if n_queues <= 0:
            raise ValueError(f"n_queues must be positive, got {n_queues}")
        if reta_size <= 0:
            raise ValueError(f"reta_size must be positive, got {reta_size}")
        self.n_queues = n_queues
        self.reta: List[int] = [i % n_queues for i in range(reta_size)]

    def queue_for(self, flow_key: Sequence[int]) -> int:
        """RX queue for a flow key (tuple of integer header fields)."""
        return self.reta[rss_hash(*flow_key) % len(self.reta)]

    def queues_for(self, *field_arrays: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`queue_for` over parallel field arrays.

        Entry *i* equals ``queue_for((fields[0][i], fields[1][i], …))``
        — same hash, same indirection table, one numpy pass.
        """
        hashes = rss_hash_array(*field_arrays)
        reta = np.asarray(self.reta, dtype=np.int64)
        return reta[hashes % np.uint32(len(self.reta))]

    def flow_table(self, flow_keys: Sequence[Sequence[int]]) -> np.ndarray:
        """Queue per flow index: entry *i* equals ``queue_for(flow_keys[i])``.

        One :meth:`queues_for` pass over the key columns; a packet
        stream of flow indices then steers with ``table[flows]``.
        """
        columns = np.array(flow_keys, dtype=np.uint64).T
        return self.queues_for(*columns)


class FlowDirectorSteering:
    """Exact-match flow steering with balanced placement.

    New flows are pinned to the queue with the fewest assigned flows
    (weighted by observed packets), modelling the better balance the
    paper measured; packets of known flows always follow their pin.
    Falls back to RSS when the (bounded) flow table overflows, exactly
    like the hardware's hash-filter fallback.
    """

    def __init__(
        self,
        n_queues: int,
        table_size: int = 8192,
        fallback: RssSteering | None = None,
    ) -> None:
        if n_queues <= 0:
            raise ValueError(f"n_queues must be positive, got {n_queues}")
        if table_size <= 0:
            raise ValueError(f"table_size must be positive, got {table_size}")
        self.n_queues = n_queues
        self.table_size = table_size
        self.fallback = fallback if fallback is not None else RssSteering(n_queues)
        self._flows: Dict[Hashable, int] = {}
        self._queue_load: List[int] = [0] * n_queues
        self.table_overflows = 0

    def queue_for(self, flow_key: Hashable) -> int:
        """RX queue for a flow key; pins new flows to the lightest queue."""
        queue = self._flows.get(flow_key)
        if queue is None:
            if len(self._flows) >= self.table_size:
                self.table_overflows += 1
                return self.fallback.queue_for(flow_key)  # type: ignore[arg-type]
            queue = min(range(self.n_queues), key=self._queue_load.__getitem__)
            self._flows[flow_key] = queue
        self._queue_load[queue] += 1
        return queue

    def flow_table(self, flow_keys: Sequence[Hashable]) -> np.ndarray:
        """Queue per flow index: entry *i* equals ``queue_for(flow_keys[i])``.

        Flows are pinned in index order (overflowing ones take the RSS
        fallback), so a packet stream of flow indices then steers with
        ``table[flows]``.
        """
        return np.array(
            [self.queue_for(key) for key in flow_keys], dtype=np.int64
        )

    @property
    def n_flows(self) -> int:
        """Flows currently pinned."""
        return len(self._flows)

    def queue_loads(self) -> List[int]:
        """Packets observed per queue (balance diagnostic)."""
        return list(self._queue_load)
