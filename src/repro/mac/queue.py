"""The shared downlink queue over the wired backend (§9).

"In MegaMIMO, all downlink packets are sent on the Ethernet to all MegaMIMO
APs.  Thus, all APs in the network have the same downlink queue.  Each
packet in the queue has a designated AP, which is the AP with the strongest
SNR to the client to which that packet is destined."
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional, Tuple

import numpy as np

from repro.utils.validation import require

_sequence = itertools.count()


@dataclass(eq=False)
class Packet:
    """One downlink packet (compared by identity).

    Attributes:
        client: Destination client index.
        size_bytes: Payload size.
        designated_ap: AP index with the strongest SNR to the client.
        seqno: Monotonic creation order (the packet's identifier).
        retries: Times this packet has been (re)transmitted.
    """

    client: int
    size_bytes: int
    designated_ap: int
    seqno: int = field(default_factory=lambda: next(_sequence))
    retries: int = 0


class DownlinkQueue:
    """FIFO downlink queue replicated at every AP via the backend.

    Stored as one deque of ``(ticket, packet)`` entries per client: the FIFO
    order is the ticket order, and scheduling reads only each client's front
    entry, so its cost is O(n_clients) at any backlog depth.

    Args:
        client_ap_snr_db: (n_clients, n_aps) SNR map used to designate APs,
            once per client at construction; the queue keeps its own copy.
    """

    def __init__(self, client_ap_snr_db: np.ndarray):
        snr = np.array(client_ap_snr_db, dtype=float)
        require(snr.ndim == 2, "need an (n_clients, n_aps) SNR map")
        self.client_ap_snr_db = snr
        self.n_clients, self.n_aps = snr.shape
        self._designated: List[int] = np.argmax(snr, axis=1).tolist()
        self._fifos: List[Deque[Tuple[int, Packet]]] = [deque() for _ in snr]
        self._tickets = itertools.count()

    def designated_ap(self, client: int) -> int:
        """AP with the strongest SNR to ``client``."""
        return self._designated[client]

    def enqueue(self, client: int, size_bytes: int = 1500) -> Packet:
        """Add one packet for ``client``; designation happens here."""
        require(0 <= client < self.n_clients, "unknown client")
        packet = Packet(
            client=client,
            size_bytes=size_bytes,
            designated_ap=self.designated_ap(client),
        )
        self._fifos[client].append((next(self._tickets), packet))
        return packet

    def requeue(self, packet: Packet) -> None:
        """Return an unACKed packet for a future joint transmission (§9)."""
        packet.retries += 1
        self._fifos[packet.client].append((next(self._tickets), packet))

    def heads(self) -> List[Packet]:
        """Each client's oldest packet, oldest first."""
        return [packet for _, packet in sorted(f[0] for f in self._fifos if f)]

    def head(self) -> Optional[Packet]:
        """The packet MegaMIMO always transmits next (head of the queue)."""
        return next(iter(self.heads()), None)

    def remove(self, packet: Packet) -> None:
        fifo = self._fifos[packet.client]
        entry = next((e for e in fifo if e[1] is packet), None)
        fifo.remove(entry)  # ValueError when the packet is not queued

    def pending_for(self, client: int) -> List[Packet]:
        return [packet for _, packet in self._fifos[client]]

    def __len__(self) -> int:
        return sum(map(len, self._fifos))

    def __iter__(self):
        return (packet for _, packet in heapq.merge(*self._fifos))
