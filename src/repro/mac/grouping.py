"""Joint-transmission grouping heuristics (§9's deferred design choice).

"The lead AP then chooses additional packets for joint transmission with
this packet in order to maximize the network throughput.  There are a
variety of heuristics [43, 33, 42] that can be adopted ... we leave the
exact algorithm for making this choice for future work."

This module implements that future work:

* ``GreedyFifoGrouping`` — the baseline rule (first packet per distinct
  client in FIFO order), identical to the scheduler's default;
* ``ThroughputAwareGrouping`` — greedy sum-rate maximization: starting from
  the head packet's client, repeatedly admit the candidate whose addition
  maximizes the estimated post-ZF sum rate, stopping when adding anyone
  would reduce it.  Fewer well-conditioned streams can beat a full house —
  admitting a client nearly collinear with another collapses the ZF power
  scalar k for everyone.

Both are callables compatible with ``JointScheduler(grouping=...)``, which
passes as ``candidates`` each other client's oldest packet, in FIFO order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.core.beamforming import zero_forcing_gain_wideband
from repro.mac.queue import Packet
from repro.mac.rate import EffectiveSnrRateSelector
from repro.utils.units import linear_to_db
from repro.utils.validation import require


@dataclass
class GreedyFifoGrouping:
    """The default rule, as a named object for ablations."""

    def __call__(self, head: Packet, candidates: Sequence[Packet], budget: int):
        chosen = [head]
        seen = {head.client}
        for packet in candidates:
            if len(chosen) >= budget:
                break
            if packet.client in seen:
                continue
            chosen.append(packet)
            seen.add(packet.client)
        return chosen


class ThroughputAwareGrouping:
    """Greedy sum-rate-maximizing admission.

    Args:
        channels: (n_bins, n_clients, n_aps) channel tensor from the last
            sounding — the lead AP has it ("APs in MegaMIMO know the full
            channel matrix H prior to transmission", §9).
        selector: Rate selector used to score candidate groups.
        noise_power: Receiver noise power.
    """

    def __init__(
        self,
        channels: np.ndarray,
        selector: EffectiveSnrRateSelector,
        noise_power: float = 1.0,
    ):
        channels = np.asarray(channels, dtype=complex)
        require(channels.ndim == 3, "need (n_bins, n_clients, n_aps)")
        self.channels = channels
        self.selector = selector
        self.noise_power = float(noise_power)
        self.n_clients = channels.shape[1]
        self.n_aps = channels.shape[2]

    def group_sum_rate(self, clients: Sequence[int]) -> float:
        """Estimated total goodput of jointly serving ``clients``.

        With the paper's shared power scalar every stream sees SNR k^2/N0,
        so the sum rate is len(clients) * rate(k^2/N0).
        """
        clients = list(clients)
        require(clients, "need at least one client")
        if len(clients) > self.n_aps:
            return 0.0
        sub = self.channels[:, clients, :]
        try:
            k = zero_forcing_gain_wideband(sub)
        except np.linalg.LinAlgError:
            return 0.0
        snr_db = float(linear_to_db(k**2 / self.noise_power))
        return len(clients) * self.selector.goodput(snr_db)

    def __call__(self, head: Packet, candidates: Sequence[Packet], budget: int):
        chosen = [head]
        clients = [head.client]
        best_rate = self.group_sum_rate(clients)
        # first packet per distinct client, FIFO order within a client
        pool: List[Packet] = []
        seen = {head.client}
        for packet in candidates:
            if packet.client not in seen:
                pool.append(packet)
                seen.add(packet.client)

        while pool and len(chosen) < budget:
            scores = [
                self.group_sum_rate(clients + [p.client]) for p in pool
            ]
            idx = int(np.argmax(scores))
            if scores[idx] <= best_rate:
                break  # admitting anyone would hurt the sum rate
            best_rate = scores[idx]
            chosen.append(pool.pop(idx))
            clients.append(chosen[-1].client)
        return chosen
