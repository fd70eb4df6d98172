"""Unit tests of the sweep engine: chunking, assembly, checkpointing,
backend resolution and the in-parent/pool execution paths."""

import json
import signal

import numpy as np
import pytest

from repro.runtime import (
    POOL_MIN_TRIALS,
    CellSpec,
    CheckpointMismatch,
    SweepError,
    assemble_results,
    iter_chunks,
    load_completed,
    resolve_backend,
    run_chunk_batched,
    run_sweep,
    sweep_header,
)
from repro.runtime import engine


def mean_kernel(params, seeds):
    """Picklable toy kernel: one seeded draw per seed, scaled by the
    cell's params."""
    return [
        float(params["scale"] * np.random.default_rng(seed).standard_normal())
        for seed in seeds
    ]


CELLS = [
    CellSpec(key="a", params={"scale": 1.0}, n_trials=7),
    CellSpec(key=("b", 2), params={"scale": 2.0}, n_trials=5),
]


class TestChunking:
    def test_iter_chunks_covers_exactly_once(self):
        chunks = list(iter_chunks(10, 4))
        assert chunks == [(0, 0, 4), (1, 4, 8), (2, 8, 10)]

    def test_zero_trials(self):
        assert list(iter_chunks(0, 4)) == []

    def test_bad_args_rejected(self):
        with pytest.raises(ValueError):
            list(iter_chunks(-1, 4))
        with pytest.raises(ValueError):
            list(iter_chunks(4, 0))


class TestAssembly:
    def _chunks(self):
        out = {}
        for cell_index, cell in enumerate(CELLS):
            for chunk_index, start, stop in iter_chunks(cell.n_trials, 3):
                out[(cell_index, chunk_index)] = run_chunk_batched(
                    mean_kernel, "unit", 0, cell.params, cell_index, start, stop
                )
        return out

    def test_duplicate_trial_rejected(self):
        chunks = self._chunks()
        chunks[(0, 99)] = [[0, 0.0]]  # trial 0 of cell 0 again
        with pytest.raises(SweepError, match="twice"):
            assemble_results(CELLS, chunks)

    def test_missing_trial_rejected(self):
        chunks = self._chunks()
        del chunks[(1, 0)]
        with pytest.raises(SweepError, match="missing"):
            assemble_results(CELLS, chunks)

    def test_cell_results_lookup(self):
        r = run_sweep("unit", mean_kernel, CELLS, master_seed=0)
        assert r.cell_results("a") == r.results[0]
        assert r.cell_results(("b", 2)) == r.results[1]
        # keys are compared after jsonable-normalization: lists match tuples
        assert r.cell_results(["b", 2]) == r.results[1]
        with pytest.raises(KeyError):
            r.cell_results("nope")


class TestCheckpoint:
    def test_checkpoint_roundtrip(self, tmp_path):
        ck = tmp_path / "sweep.jsonl"
        r = run_sweep("unit", mean_kernel, CELLS, master_seed=3,
                      chunk_size=3, checkpoint=str(ck))
        header = sweep_header("unit", 3, 3, CELLS)
        completed = load_completed(str(ck), header)
        assert assemble_results(CELLS, completed) == r.results

    def test_resume_skips_completed_chunks(self, tmp_path):
        ck = tmp_path / "sweep.jsonl"
        run_sweep("unit", mean_kernel, CELLS, master_seed=3,
                  chunk_size=3, checkpoint=str(ck))
        r = run_sweep("unit", mean_kernel, CELLS, master_seed=3,
                      chunk_size=3, checkpoint=str(ck), resume=True)
        assert r.resumed_chunks == len(
            [c for cell in CELLS for c in iter_chunks(cell.n_trials, 3)]
        )

    def test_resume_takes_chunk_size_from_header(self, tmp_path):
        ck = tmp_path / "sweep.jsonl"
        fresh = run_sweep("unit", mean_kernel, CELLS, master_seed=3,
                          chunk_size=3, checkpoint=str(ck))
        lines = ck.read_text().splitlines()
        ck.write_text("\n".join(lines[:2]) + "\n")
        r = run_sweep("unit", mean_kernel, CELLS, master_seed=3,
                      checkpoint=str(ck), resume=True)
        assert r.resumed_chunks == 1
        assert r.results == fresh.results
        assert json.loads(ck.read_text().splitlines()[0])["chunk_size"] == 3

    def test_resume_of_missing_checkpoint_uses_default_chunk_size(self, tmp_path):
        ck = tmp_path / "sweep.jsonl"
        run_sweep("unit", mean_kernel, CELLS, master_seed=3,
                  checkpoint=str(ck), resume=True)
        header = json.loads(ck.read_text().splitlines()[0])
        assert header["chunk_size"] == engine.BATCHED_CHUNK_SIZE

    def test_truncated_trailing_line_dropped(self, tmp_path):
        ck = tmp_path / "sweep.jsonl"
        run_sweep("unit", mean_kernel, CELLS, master_seed=3,
                  chunk_size=3, checkpoint=str(ck))
        lines = ck.read_text().splitlines()
        ck.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2])
        header = sweep_header("unit", 3, 3, CELLS)
        completed = load_completed(str(ck), header)
        assert len(completed) == len(lines) - 2  # header + dropped tail

    def test_header_mismatch_rejected(self, tmp_path):
        ck = tmp_path / "sweep.jsonl"
        run_sweep("unit", mean_kernel, CELLS, master_seed=3,
                  chunk_size=3, checkpoint=str(ck))
        with pytest.raises(CheckpointMismatch):
            run_sweep("unit", mean_kernel, CELLS, master_seed=4,
                      chunk_size=3, checkpoint=str(ck), resume=True)
        with pytest.raises(CheckpointMismatch):
            run_sweep("other", mean_kernel, CELLS, master_seed=3,
                      chunk_size=3, checkpoint=str(ck), resume=True)

    def test_checkpoint_is_jsonl(self, tmp_path):
        ck = tmp_path / "sweep.jsonl"
        run_sweep("unit", mean_kernel, CELLS, master_seed=3, checkpoint=str(ck))
        records = [json.loads(line) for line in ck.read_text().splitlines()]
        assert records[0]["type"] == "header"
        assert records[0]["sweep"] == "unit"
        assert all(rec["type"] == "chunk" for rec in records[1:])


def short_kernel(params, seeds):
    return mean_kernel(params, seeds)[:-1]


#: Chunks (keyed by their first seed) that already failed once.
_FAILED_ONCE = set()


def fail_once_kernel(params, seeds):
    """Raises on a chunk's first call and succeeds on its retry."""
    key = tuple(seeds[0].spawn_key)
    if key not in _FAILED_ONCE:
        _FAILED_ONCE.add(key)
        raise FloatingPointError("stacked matrix went singular")
    return mean_kernel(params, seeds)


class TestResolveBackend:
    def test_none_keeps_legacy_semantics(self):
        assert resolve_backend(None, mean_kernel, 1, 1000) == "batched"
        assert resolve_backend(None, mean_kernel, 4, 1) == "process"

    def test_literal_backends_pass_through(self):
        for mode in ("batched", "process"):
            assert resolve_backend(mode, mean_kernel, 2, 10) == mode

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("gpu", mean_kernel, 1, 10)

    def test_retired_backends_rejected(self):
        with pytest.raises(ValueError, match="'serial' was removed; use 'batched'"):
            resolve_backend("serial", mean_kernel, 1, 10)
        with pytest.raises(ValueError, match="'thread' was removed; use 'process'"):
            resolve_backend("thread", mean_kernel, 2, 10)

    def test_backend_codes_are_stable(self):
        # benchmark records report a resolved backend by its position
        assert engine.BACKENDS.index("process") == 3
        assert engine.BACKENDS.index("batched") == 4
        assert set(engine.SELECTABLE_BACKENDS) == (
            set(engine.BACKENDS) - set(engine.RETIRED_BACKENDS)
        )

    def test_auto_pool_needs_cores_and_trials(self, monkeypatch):
        monkeypatch.setattr(engine, "_usable_cpus", lambda: 4)
        assert (
            resolve_backend("auto", mean_kernel, 4, POOL_MIN_TRIALS)
            == "process"
        )
        # too few trials to amortize the pool's start-up and dispatch
        assert (
            resolve_backend("auto", mean_kernel, 4, POOL_MIN_TRIALS - 1)
            == "batched"
        )
        assert resolve_backend("auto", mean_kernel, 1, 10**6) == "batched"
        monkeypatch.setattr(engine, "_usable_cpus", lambda: 1)
        assert resolve_backend("auto", mean_kernel, 4, 10**6) == "batched"


class TestBatchedExecution:
    def test_matches_serial(self):
        # one trial per kernel call is the scalar reference geometry
        serial = run_sweep("unit", mean_kernel, CELLS, master_seed=5,
                           chunk_size=1)
        batched = run_sweep("unit", mean_kernel, CELLS, master_seed=5,
                            backend="batched")
        assert batched.results == serial.results
        assert batched.chunk_failures == 0

    def test_length_mismatch_rejected(self):
        with pytest.raises(SweepError, match="3 results for 4 seeds"):
            run_chunk_batched(short_kernel, "unit", 0, {"scale": 1.0}, 0, 0, 4)

    @pytest.mark.parametrize("backend", ["batched", "process"])
    def test_length_mismatch_fails_the_sweep(self, backend):
        # the retry re-runs the same kernel, so the mismatch propagates
        with pytest.raises(SweepError, match="results for"):
            run_sweep("unit", short_kernel, CELLS, master_seed=5,
                      workers=2, backend=backend)

    def test_failed_chunk_retries_serially(self):
        _FAILED_ONCE.clear()
        serial = run_sweep("unit", mean_kernel, CELLS, master_seed=5)
        degraded = run_sweep("unit", fail_once_kernel, CELLS, master_seed=5,
                             chunk_size=4, backend="batched")
        assert degraded.results == serial.results
        assert degraded.chunk_failures == len(
            [c for cell in CELLS for c in iter_chunks(cell.n_trials, 4)]
        )


def sigterm_default_kernel(params, seeds):
    return [signal.getsignal(signal.SIGTERM) == signal.SIG_DFL] * len(seeds)


class TestProcessBackend:
    def test_matches_serial(self):
        serial = run_sweep("unit", mean_kernel, CELLS, master_seed=5,
                           chunk_size=1)
        pooled = run_sweep("unit", mean_kernel, CELLS, master_seed=5,
                           workers=2, backend="process")
        assert pooled.results == serial.results
        assert pooled.chunk_failures == 0

    def test_workers_restore_default_sigterm(self):
        # a parent-side SIGTERM handler (e.g. the CLI's crash-bundle guard)
        # must not run in pool workers the watchdog terminates
        previous = signal.signal(signal.SIGTERM, lambda signum, frame: None)
        try:
            r = run_sweep("sig", sigterm_default_kernel,
                          [CellSpec(key="a", params=None, n_trials=4)],
                          master_seed=0, workers=2, chunk_size=2,
                          backend="process")
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert r.results == [[True] * 4]
        assert r.chunk_failures == 0


class TestValidation:
    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            run_sweep("unit", mean_kernel, CELLS, master_seed=0, workers=0)

    def test_resume_without_checkpoint_is_fresh_run(self):
        r = run_sweep("unit", mean_kernel, CELLS, master_seed=0, resume=True)
        assert r.resumed_chunks == 0
        assert r.results == run_sweep("unit", mean_kernel, CELLS,
                                      master_seed=0).results
