"""Shared downlink queue (§9)."""

import numpy as np
import pytest

from repro.mac.queue import DownlinkQueue


@pytest.fixture
def snr_map():
    # 3 clients x 2 APs; client 0 and 1 strongest at AP 1, client 2 at AP 0
    return np.array([[10.0, 20.0], [5.0, 15.0], [22.0, 12.0]])


class TestDesignation:
    def test_strongest_ap(self, snr_map):
        q = DownlinkQueue(snr_map)
        assert q.designated_ap(0) == 1
        assert q.designated_ap(2) == 0

    def test_enqueue_sets_designation(self, snr_map):
        q = DownlinkQueue(snr_map)
        p = q.enqueue(client=2)
        assert p.designated_ap == 0

    def test_designation_fixed_at_construction(self, snr_map):
        q = DownlinkQueue(snr_map)
        snr_map[0] = [30.0, 0.0]  # the caller's map changes afterwards
        assert q.designated_ap(0) == 1
        assert int(np.argmax(q.client_ap_snr_db[0])) == 1  # the queue's copy
        assert q.enqueue(client=0).designated_ap == 1

    def test_unknown_client_rejected(self, snr_map):
        q = DownlinkQueue(snr_map)
        with pytest.raises(ValueError):
            q.enqueue(client=5)


class TestFifo:
    def test_head_is_oldest(self, snr_map):
        q = DownlinkQueue(snr_map)
        first = q.enqueue(0)
        q.enqueue(1)
        assert q.head() is first

    def test_empty_head_is_none(self, snr_map):
        assert DownlinkQueue(snr_map).head() is None

    def test_remove(self, snr_map):
        q = DownlinkQueue(snr_map)
        a = q.enqueue(0)
        b = q.enqueue(1)
        q.remove(a)
        assert q.head() is b
        assert len(q) == 1

    def test_seqnos_increase(self, snr_map):
        q = DownlinkQueue(snr_map)
        a, b = q.enqueue(0), q.enqueue(0)
        assert b.seqno > a.seqno


class TestRetransmission:
    def test_requeue_appends_and_counts(self, snr_map):
        q = DownlinkQueue(snr_map)
        a = q.enqueue(0)
        q.enqueue(1)
        q.remove(a)
        q.requeue(a)
        assert a.retries == 1
        assert q.head().client == 1  # requeued packet goes to the back
        assert q.pending_for(0) == [a]

    def test_pending_filter(self, snr_map):
        q = DownlinkQueue(snr_map)
        q.enqueue(0)
        q.enqueue(1)
        q.enqueue(0)
        assert len(q.pending_for(0)) == 2
        assert len(q.pending_for(2)) == 0
