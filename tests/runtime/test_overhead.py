"""Dispatch-overhead accounting: envelopes, attribution, worker telemetry.

The engine promises that instrumentation rides *alongside* results (the
bit-identical guarantee is untouched), that every run yields a wall-time
attribution whose per-worker components reassemble the measured wall, and
that what pool workers record — trace spans and metric samples — comes
home in the chunk envelopes into one coherent parent trace and registry.
"""

import numpy as np
import pytest

from repro.obs import metrics, trace
from repro.obs.events import iter_events
from repro.obs.profile import profile_trace
from repro.runtime import (
    CellSpec,
    MEMORY_ENV_FLAG,
    drain_overheads,
    run_chunk,
    run_chunk_batched,
    run_sweep,
)


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


def components_sum(worker: dict) -> float:
    return (worker["compute_s"] + worker["dispatch_s"]
            + worker["serialization_s"] + worker["idle_s"])


class TestEnvelope:
    def test_instrumented_chunk_carries_accounting(self):
        env = run_chunk(
            mean_kernel, "unit", 0, CELLS[0].params, 0, 0, 0, 4
        )
        assert [t for t, _ in env["pairs"]] == [0, 1, 2, 3]
        assert env["recv_ts"] <= env["done_ts"]
        assert env["wall_s"] >= 0.0 and env["cpu_s"] >= 0.0
        # the result payload was priced by actually pickling it
        assert env["ser_result_bytes"] > 0
        assert env["ser_result_s"] >= 0.0

    def test_measure_ser_false_skips_the_pickle_probe(self):
        env = run_chunk(
            mean_kernel, "unit", 0, CELLS[0].params, 0, 0, 0, 4,
            measure_ser=False,
        )
        assert env["ser_result_bytes"] == 0
        assert env["ser_result_s"] == 0.0

    def test_envelope_never_alters_results(self):
        env = run_chunk(
            mean_kernel, "unit", 0, CELLS[0].params, 0, 0, 0, 4
        )
        assert env["pairs"] == run_chunk_batched(
            mean_kernel, "unit", 0, CELLS[0].params, 0, 0, 4
        )


class TestSerialAttribution:
    def test_overhead_present_and_reassembles_wall(self):
        drain_overheads()
        r = run_sweep("unit", mean_kernel, CELLS, master_seed=0, chunk_size=3)
        o = r.overhead
        assert o is not None
        assert o["workers"] == 1
        assert set(o["modes"]) == {"batched"}
        assert o["trials"] == sum(c.n_trials for c in CELLS)
        (worker,) = o["per_worker"]
        assert worker["worker"] == "parent"
        assert components_sum(worker) == pytest.approx(o["wall_s"], rel=0.1)

    def test_drain_overheads_returns_and_clears(self):
        drain_overheads()
        run_sweep("unit", mean_kernel, CELLS, master_seed=0)
        run_sweep("unit2", mean_kernel, CELLS, master_seed=1)
        drained = drain_overheads()
        assert [o["sweep"] for o in drained] == ["unit", "unit2"]
        assert drain_overheads() == []

    def test_fully_resumed_run_has_no_overhead(self, tmp_path):
        ck = tmp_path / "sweep.jsonl"
        run_sweep("unit", mean_kernel, CELLS, master_seed=3, checkpoint=str(ck))
        r = run_sweep("unit", mean_kernel, CELLS, master_seed=3,
                      checkpoint=str(ck), resume=True)
        assert r.resumed_chunks > 0
        assert r.overhead is None

    def test_memory_sampling_via_env_flag(self, monkeypatch):
        import tracemalloc

        monkeypatch.setenv(MEMORY_ENV_FLAG, "1")
        r = run_sweep("unit", mean_kernel, CELLS, master_seed=0)
        (worker,) = r.overhead["per_worker"]
        assert worker["mem_peak_kb"] > 0.0
        # the engine started tracemalloc, so it must also stop it
        assert not tracemalloc.is_tracing()

    def test_no_memory_column_without_the_flag(self, monkeypatch):
        monkeypatch.delenv(MEMORY_ENV_FLAG, raising=False)
        r = run_sweep("unit", mean_kernel, CELLS, master_seed=0)
        (worker,) = r.overhead["per_worker"]
        assert "mem_peak_kb" not in worker


class TestPoolAttributionAndShards:
    """One traced workers=4 run, dissected from every angle: attribution,
    and the worker records the chunk envelopes bring home."""

    @pytest.fixture(scope="class")
    def traced_run(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("trace") / "sweep.jsonl"
        trace.configure(str(path))
        try:
            result = run_sweep("unit", mean_kernel, CELLS, master_seed=0,
                               workers=4, chunk_size=2)
        finally:
            trace.close()
        return result, path

    def test_results_identical_to_serial(self, traced_run):
        result, _ = traced_run
        serial = run_sweep("unit", mean_kernel, CELLS, master_seed=0,
                           chunk_size=2)
        assert result.results == serial.results

    def test_per_worker_components_reassemble_wall(self, traced_run):
        result, _ = traced_run
        o = result.overhead
        assert o["workers"] == 4
        assert o["chunks"] == 7  # ceil(7/2) + ceil(5/2)
        assert o["per_worker"], "no worker breakdowns recorded"
        for worker in o["per_worker"]:
            assert components_sum(worker) == pytest.approx(
                o["wall_s"], rel=0.1
            ), worker["worker"]

    def test_profiler_reads_the_same_attribution_from_the_trace(
        self, traced_run
    ):
        result, path = traced_run
        (a,) = profile_trace(str(path)).attributions
        assert a.sweep == "unit"
        assert a.workers == 4
        assert a.chunks == 7
        for w in a.per_worker:
            assert w.components_s == pytest.approx(a.wall_s, rel=0.1), w.worker
        d = a.to_dict()
        # trace-derived and engine-stamped attributions agree on the split
        pool_workers = [w for w in result.overhead["per_worker"]
                        if w["worker"].startswith("pid:")]
        assert {w["worker"] for w in d["per_worker"]} >= {
            w["worker"] for w in pool_workers
        }

    def test_worker_spans_merge_with_parent_linkage(self, traced_run):
        _, path = traced_run
        records = list(iter_events(str(path)))
        (sweep,) = [r for r in records if r["type"] == "span"
                    and r["name"] == "runtime.sweep"]
        chunk_spans = [r for r in records if r["type"] == "span"
                       and r["name"] == "runtime.chunk"]
        pool_chunks = [r for r in records if r["type"] == "event"
                       and r["name"] == "runtime.chunk"
                       and r["attrs"]["mode"] == "pool"]
        # every pool chunk's worker-side span survived the process boundary
        assert len(chunk_spans) >= len(pool_chunks) > 0
        for span in chunk_spans:
            assert span["parent_id"] == sweep["span_id"]
            assert span["depth"] == sweep["depth"] + 1
            assert span["attrs"]["worker_pid"] > 0
        ids = [r["span_id"] for r in records if r["type"] == "span"]
        assert len(ids) == len(set(ids))

    def test_shard_dir_cleaned_up(self, traced_run):
        # worker records travel in the envelopes: no side files at all
        _, path = traced_run
        assert sorted(p.name for p in path.parent.iterdir()) == [path.name]
        assert not (path.parent / (path.name + ".shards")).exists()

    def test_sweep_span_records_overhead_fractions(self, traced_run):
        _, path = traced_run
        (sweep,) = [r for r in iter_events(str(path))
                    if r["type"] == "span" and r["name"] == "runtime.sweep"]
        attrs = sweep["attrs"]
        assert attrs["workers"] == 4
        for key in ("utilization", "dispatch_frac", "serialization_frac"):
            assert 0.0 <= attrs[key] <= 1.0


class TestPoolMetrics:
    """Samples observed inside pool workers reach the parent's registry."""

    @staticmethod
    def _fig8_telemetry(**runtime):
        from repro.sim.experiments import run_fig8

        metrics.reset()
        run_fig8(seed=3, n_receivers=(2, 3), n_topologies=3, n_packets=2,
                 **runtime)
        registry = metrics.get_registry()
        samples = sorted(
            registry.histogram("fastsim.phase_error_rad").series.values().tolist()
        )
        draws = registry.counter("fastsim.phase_error_draws").value
        metrics.reset()
        return samples, draws

    def test_fig8_pool_run_records_what_an_in_parent_run_records(self):
        parent_samples, parent_draws = self._fig8_telemetry(workers=1)
        pool_samples, pool_draws = self._fig8_telemetry(
            workers=2, backend="process"
        )
        assert len(parent_samples) > 0 and parent_draws > 0
        assert pool_samples == parent_samples
        assert pool_draws == parent_draws
