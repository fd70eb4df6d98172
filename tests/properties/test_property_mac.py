"""Property-based tests of the link-layer invariants."""

from collections import deque

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from repro.mac.grouping import GreedyFifoGrouping, ThroughputAwareGrouping
from repro.mac.queue import DownlinkQueue
from repro.mac.rate import EffectiveSnrRateSelector
from repro.mac.scheduler import JointScheduler
from repro.phy.mcs import ALL_MCS
from repro.sim.fastsim import build_channel_tensor

client_sequences = st.lists(st.integers(0, 5), min_size=1, max_size=20)


def fresh_queue(n_clients=6, n_aps=4, seed=0):
    rng = np.random.default_rng(seed)
    return DownlinkQueue(rng.uniform(5, 25, (n_clients, n_aps)))


class TestQueueInvariants:
    @given(clients=client_sequences)
    @settings(max_examples=40, deadline=None)
    def test_fifo_head_is_first_enqueued(self, clients):
        q = fresh_queue()
        packets = [q.enqueue(c) for c in clients]
        assert q.head() is packets[0]

    @given(clients=client_sequences)
    @settings(max_examples=40, deadline=None)
    def test_designation_always_strongest(self, clients):
        q = fresh_queue(seed=3)
        for c in clients:
            p = q.enqueue(c)
            assert p.designated_ap == int(np.argmax(q.client_ap_snr_db[c]))

    @given(clients=client_sequences)
    @settings(max_examples=40, deadline=None)
    def test_length_bookkeeping(self, clients):
        q = fresh_queue()
        packets = [q.enqueue(c) for c in clients]
        assert len(q) == len(clients)
        for p in packets:
            q.remove(p)
        assert len(q) == 0


class TestSchedulerInvariants:
    @given(clients=client_sequences, budget=st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_group_structure(self, clients, budget):
        """Every group: head first, one packet per client, within budget,
        and repeated scheduling drains the queue completely."""
        q = fresh_queue(seed=1)
        for c in clients:
            q.enqueue(c)
        scheduler = JointScheduler(q, max_streams=budget)
        total = 0
        while True:
            before_head = q.head()
            group = scheduler.next_group()
            if group is None:
                break
            assert group.packets[0] is before_head
            assert len(group.packets) <= budget
            assert len({p.client for p in group.packets}) == len(group.packets)
            assert group.lead_ap == before_head.designated_ap
            total += len(group.packets)
        assert total == len(clients)
        assert len(q) == 0


class ReferenceFifo:
    """The single-deque queue and scheduler the per-client queue replaced:
    one FIFO of every packet, scanned in full for each group."""

    def __init__(self, budget, grouping=None):
        self.packets = deque()
        self.budget = budget
        self.grouping = grouping

    def remove(self, packet):
        for i, queued in enumerate(self.packets):
            if queued is packet:
                del self.packets[i]
                return

    def next_group(self):
        if not self.packets:
            return None
        head = self.packets[0]
        candidates = [p for p in self.packets if p is not head]
        if self.grouping is not None:
            chosen = self.grouping(head, candidates, self.budget)
        else:
            chosen = [head]
            seen = {head.client}
            for packet in candidates:
                if len(chosen) >= self.budget:
                    break
                if packet.client in seen:
                    continue
                chosen.append(packet)
                seen.add(packet.client)
        for packet in chosen:
            self.remove(packet)
        return chosen


queue_ops = st.lists(
    st.one_of(
        st.tuples(st.just("enqueue"), st.integers(0, 5)),
        st.tuples(st.just("requeue"), st.integers(0, 1000)),
        st.tuples(st.just("remove"), st.integers(0, 1000)),
        st.tuples(st.just("next_group"), st.just(0)),
    ),
    max_size=80,
)


def make_grouping(name):
    if name == "greedy":
        return GreedyFifoGrouping()
    if name == "throughput":
        channels = build_channel_tensor(np.full((6, 4), 20.0), np.random.default_rng(9))
        return ThroughputAwareGrouping(channels, EffectiveSnrRateSelector(10e6))
    return None


class TestQueueMatchesSingleFifo:
    @given(ops=queue_ops, budget=st.integers(1, 6),
           grouping=st.sampled_from(["default", "greedy", "throughput"]))
    @settings(max_examples=80, deadline=None)
    def test_same_groups_as_reference(self, ops, budget, grouping):
        """Any enqueue/requeue/remove/next_group sequence yields the same
        groups, the same FIFO order and the same lengths as one deque."""
        rule = make_grouping(grouping)
        q = fresh_queue()
        scheduler = JointScheduler(q, max_streams=budget, grouping=rule)
        ref = ReferenceFifo(budget, rule)
        out = []  # packets taken out and not yet requeued
        for op, arg in ops:
            if op == "enqueue":
                ref.packets.append(q.enqueue(arg))
            elif op == "requeue" and out:
                packet = out.pop(arg % len(out))
                q.requeue(packet)
                ref.packets.append(packet)
            elif op == "remove" and ref.packets:
                packet = ref.packets[arg % len(ref.packets)]
                q.remove(packet)
                ref.remove(packet)
                out.append(packet)
            elif op == "next_group":
                expected = ref.next_group()
                group = scheduler.next_group()
                if expected is None:
                    assert group is None
                    continue
                assert group.packets == expected  # identity, in order
                assert group.lead_ap == expected[0].designated_ap
                out.extend(expected)
            assert list(q) == list(ref.packets)
            assert len(q) == len(ref.packets)
            assert q.head() is (ref.packets[0] if ref.packets else None)


class TestRateSelectorInvariants:
    @given(snr=st.floats(-10.0, 40.0))
    @settings(max_examples=60, deadline=None)
    def test_selected_mcs_threshold_respected(self, snr):
        # a flat row's effective SNR equals its SNR to ~1e-15 dB; stay off
        # the thresholds themselves, where that rounding decides
        assume(all(abs(snr - m.min_snr_db) > 1e-9 for m in ALL_MCS))
        mcs = EffectiveSnrRateSelector(10e6).select(np.full(48, snr)).mcs
        if mcs is None:
            assert snr < ALL_MCS[0].min_snr_db
        else:
            assert snr >= mcs.min_snr_db
            # and nothing faster qualifies
            if mcs.index < 7:
                assert snr < ALL_MCS[mcs.index + 1].min_snr_db

    @given(
        seed=st.integers(0, 2**31),
        shift_db=st.floats(0.5, 6.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_rate_monotone_under_uniform_improvement(self, seed, shift_db):
        """Raising every subcarrier's SNR can never lower the chosen rate."""
        rng = np.random.default_rng(seed)
        sel = EffectiveSnrRateSelector(10e6)
        snrs = rng.uniform(0.0, 25.0, 48)
        base = sel.select(snrs).bitrate
        better = sel.select(snrs + shift_db).bitrate
        assert better >= base
