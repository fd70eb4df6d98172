"""Scheduling-independence: the tentpole guarantee of the sweep engine.

For the real experiment kernels (fig6, fig9, sync ablation), the aggregated
results must be *bit-identical* — not approximately equal — across

* ``workers=1`` (in-parent, one kernel call per 32-trial chunk),
* ``workers=4`` (process pool, nondeterministic completion order),
* a run resumed from a partially-complete checkpoint, on another
  backend (the resume takes the chunk size from the checkpoint header).

That holds because every trial's RNG stream is derived from
``(master_seed, sweep, cell, trial)`` rather than from scheduling; see
docs/parallelism.md.
"""

import numpy as np

from repro.runtime import CellSpec, run_sweep
from repro.sim.ablations import run_sync_strategy_ablation
from repro.sim.experiments import fig6_kernel, run_fig6, run_fig9


def assert_same_arrays(a, b):
    assert set(a) == set(b)
    for k in a:
        assert np.array_equal(np.asarray(a[k]), np.asarray(b[k])), k


class TestFig6:
    def test_parallel_matches_serial_bitwise(self):
        serial = run_fig6(seed=1, n_channels=10)
        pooled = run_fig6(seed=1, n_channels=10, workers=4)
        assert_same_arrays(serial.reduction_db, pooled.reduction_db)

    def test_resumed_matches_fresh_bitwise(self, tmp_path):
        ck = tmp_path / "fig6.jsonl"
        fresh = run_fig6(seed=1, n_channels=10, checkpoint=str(ck), workers=2)
        # keep only the header + first completed chunk, as if killed early
        lines = ck.read_text().splitlines()
        ck.write_text("\n".join(lines[:2]) + "\n")
        resumed = run_fig6(seed=1, n_channels=10, checkpoint=str(ck),
                           resume=True)
        assert_same_arrays(fresh.reduction_db, resumed.reduction_db)


class TestFig9:
    CONFIG = dict(seed=4, n_aps=(2, 3), n_topologies=4)

    def test_parallel_matches_serial_bitwise(self):
        serial = run_fig9(**self.CONFIG)
        pooled = run_fig9(**self.CONFIG, workers=4)
        assert set(serial.cells) == set(pooled.cells)
        for key, cell in serial.cells.items():
            other = pooled.cells[key]
            assert np.array_equal(cell.megamimo_bps, other.megamimo_bps), key
            assert np.array_equal(cell.baseline_bps, other.baseline_bps), key
            assert np.array_equal(cell.per_client_gains, other.per_client_gains)

    def test_resumed_matches_fresh_bitwise(self, tmp_path):
        ck = tmp_path / "fig9.jsonl"
        fresh = run_fig9(**self.CONFIG, checkpoint=str(ck))
        lines = ck.read_text().splitlines()
        assert len(lines) > 3  # header + several chunks
        ck.write_text("\n".join(lines[:3]) + "\n")
        resumed = run_fig9(**self.CONFIG, checkpoint=str(ck), resume=True,
                           workers=2)
        for key, cell in fresh.cells.items():
            other = resumed.cells[key]
            assert np.array_equal(cell.megamimo_bps, other.megamimo_bps), key
            assert np.array_equal(cell.per_client_gains, other.per_client_gains)

    def test_chunk_size_does_not_matter(self):
        """Seeds are per-trial, so even the chunking is invisible."""
        params = {"n_rx": 2, "n_tx": 2, "misalignments": [0.0, 0.2, 0.4],
                  "snrs_db": [10.0, 20.0]}
        cells = [CellSpec(key="channels", params=params, n_trials=9)]
        a = run_sweep("fig6", fig6_kernel, cells, master_seed=1, chunk_size=1)
        b = run_sweep("fig6", fig6_kernel, cells, master_seed=1, chunk_size=5,
                      workers=2)
        assert a.results == b.results


class TestSyncAblation:
    def test_parallel_matches_serial_bitwise(self):
        serial = run_sync_strategy_ablation(seed=7, n_systems=3)
        pooled = run_sync_strategy_ablation(seed=7, n_systems=3, workers=4)
        assert_same_arrays(serial.misalignment_rad, pooled.misalignment_rad)

    def test_resumed_matches_fresh_bitwise(self, tmp_path):
        ck = tmp_path / "sync.jsonl"
        fresh = run_sync_strategy_ablation(seed=7, n_systems=5,
                                           checkpoint=str(ck), workers=2)
        lines = ck.read_text().splitlines()
        assert len(lines) >= 3  # header + at least two chunks
        ck.write_text("\n".join(lines[:2]) + "\n")
        resumed = run_sync_strategy_ablation(seed=7, n_systems=5,
                                             checkpoint=str(ck), resume=True)
        assert_same_arrays(fresh.misalignment_rad, resumed.misalignment_rad)
