"""Trace profiler: chunk math, hot spans, folded stacks, CLI exit codes."""

import json

import pytest

from repro.obs.profile import (
    attribute_chunks,
    folded_stacks,
    format_attribution,
    format_profile,
    profile_trace,
)


def chunk(worker="pid:1", mode="pool", recv_ts=101.0, done_ts=105.0,
          wall_s=3.0, cpu_s=2.9, trials=4, **extra):
    rec = {
        "sweep": "unit", "cell": 0, "chunk": 0, "trials": trials,
        "mode": mode, "worker": worker, "submit_ts": 100.5,
        "recv_ts": recv_ts, "done_ts": done_ts,
        "wall_s": wall_s, "cpu_s": cpu_s,
        "queue_wait_s": max(recv_ts - 100.5, 0.0), "result_wait_s": 0.0,
        "ser_task_bytes": 0, "ser_task_s": 0.0,
        "ser_result_bytes": 0, "ser_result_s": 0.0,
    }
    rec.update(extra)
    return rec


class TestAttributeChunks:
    def test_pool_worker_decomposition(self):
        # busy window 4.0s: 3.0 compute + 0.2 result pickling + 0.8 envelope;
        # first arrival 1.0s after sweep start -> dispatch 0.8 + 1.0
        recs = [chunk(ser_task_s=0.1, ser_task_bytes=64,
                      ser_result_s=0.2, ser_result_bytes=128)]
        a = attribute_chunks(recs, wall_s=10.0, workers=2, start_ts=100.0,
                             sweep="unit")
        (w,) = a.per_worker
        assert w.worker == "pid:1"
        assert w.compute_s == pytest.approx(3.0)
        assert w.serialization_s == pytest.approx(0.3)
        assert w.dispatch_s == pytest.approx(1.8)
        assert w.idle_s == pytest.approx(4.9)
        # the four components reassemble the wall exactly, by construction
        assert w.components_s == pytest.approx(a.wall_s)
        assert w.queue_wait_s == pytest.approx(0.5)
        assert a.modes == {"pool": 1}

    def test_parent_worker_has_no_startup_charge(self):
        # a serial chunk arriving late must not be billed as spawn latency
        recs = [chunk(worker="parent", mode="serial", recv_ts=104.0,
                      done_ts=107.0, wall_s=3.0)]
        a = attribute_chunks(recs, wall_s=10.0, workers=1, start_ts=100.0)
        (w,) = a.per_worker
        assert w.dispatch_s == pytest.approx(0.0)
        assert w.idle_s == pytest.approx(7.0)
        assert w.components_s == pytest.approx(10.0)

    def test_mixed_mode_worker_skips_startup(self):
        recs = [
            chunk(worker="parent", mode="retry", recv_ts=105.0, done_ts=106.0,
                  wall_s=1.0),
            chunk(worker="parent", mode="serial", recv_ts=107.0, done_ts=108.0,
                  wall_s=1.0),
        ]
        a = attribute_chunks(recs, wall_s=10.0, workers=1, start_ts=100.0)
        (w,) = a.per_worker
        assert w.chunks == 2
        assert w.dispatch_s == pytest.approx(0.0)
        assert a.modes == {"retry": 1, "serial": 1}

    def test_capacity_fractions(self):
        recs = [
            chunk(worker="pid:1", recv_ts=100.0, done_ts=104.0, wall_s=4.0),
            chunk(worker="pid:2", recv_ts=100.0, done_ts=102.0, wall_s=2.0),
        ]
        a = attribute_chunks(recs, wall_s=5.0, workers=2, start_ts=100.0)
        assert a.capacity_s == pytest.approx(10.0)
        assert a.utilization == pytest.approx(6.0 / 10.0)
        assert len(a.per_worker) == 2
        for w in a.per_worker:
            assert w.components_s == pytest.approx(a.wall_s)

    def test_mem_peak_is_max_over_chunks(self):
        recs = [chunk(mem_peak_kb=100.0), chunk(mem_peak_kb=250.0), chunk()]
        a = attribute_chunks(recs, wall_s=10.0, workers=1, start_ts=100.0)
        assert a.per_worker[0].mem_peak_kb == pytest.approx(250.0)

    def test_to_dict_shape(self):
        a = attribute_chunks([chunk()], wall_s=10.0, workers=2,
                             start_ts=100.0, sweep="fig9")
        d = a.to_dict()
        assert d["sweep"] == "fig9"
        assert d["workers"] == 2
        assert d["chunks"] == 1 and d["trials"] == 4
        for key in ("compute_s", "dispatch_s", "serialization_s", "idle_s",
                    "queue_wait_s", "utilization", "dispatch_frac",
                    "serialization_frac"):
            assert key in d
        (w,) = d["per_worker"]
        assert w["worker"] == "pid:1"
        assert "mem_peak_kb" not in w


def sweep_records():
    """A minimal merged trace: one sweep span with two chunk events."""
    return [
        {"type": "meta", "schema": 1, "ts": 99.0},
        {"type": "event", "name": "runtime.chunk", "ts": 103.0,
         "parent_id": 7, "attrs": chunk(worker="pid:1")},
        {"type": "event", "name": "runtime.chunk", "ts": 104.0,
         "parent_id": 7, "attrs": chunk(worker="pid:2", recv_ts=102.0,
                                        done_ts=104.0, wall_s=1.5)},
        {"type": "span", "name": "runtime.sweep", "ts": 100.0, "wall_s": 6.0,
         "cpu_s": 0.5, "span_id": 7, "parent_id": None, "depth": 0,
         "attrs": {"sweep": "fig9", "workers": 2}},
    ]


def resumed_sweep_records():
    """A sweep span whose every chunk was loaded from the checkpoint."""
    return [
        {"type": "meta", "schema": 1, "ts": 99.0},
        {"type": "span", "name": "runtime.sweep", "ts": 100.0, "wall_s": 0.2,
         "cpu_s": 0.01, "span_id": 7, "parent_id": None, "depth": 0,
         "attrs": {"sweep": "fig9", "workers": 1, "chunks": 9, "resumed": 9,
                   "backend": "serial"}},
    ]


class TestProfileTrace:
    def test_attribution_from_records(self):
        prof = profile_trace(sweep_records())
        (a,) = prof.attributions
        assert a.sweep == "fig9"
        assert a.workers == 2
        assert a.wall_s == pytest.approx(6.0)
        assert a.chunks == 2
        assert {w.worker for w in a.per_worker} == {"pid:1", "pid:2"}
        # the hot-span table sees the same records
        assert "runtime.sweep" in prof.spans

    def test_sweep_without_chunk_events_is_skipped(self):
        records = [r for r in sweep_records() if r["type"] != "event"]
        assert profile_trace(records).attributions == []

    def test_fully_resumed_sweep_gets_empty_attribution(self):
        # every chunk came from the checkpoint: no dispatch is legitimate,
        # not an instrumentation regression
        prof = profile_trace(resumed_sweep_records())
        (a,) = prof.attributions
        assert a.sweep == "fig9"
        assert a.chunks == 0
        assert a.per_worker == []

    def test_partially_resumed_sweep_still_skipped(self):
        # resumed < chunks with no envelopes IS an instrumentation hole
        records = resumed_sweep_records()
        records[-1]["attrs"]["resumed"] = 3
        assert profile_trace(records).attributions == []

    def test_batched_chunks_attribute_to_parent(self):
        records = [
            {"type": "event", "name": "runtime.chunk", "ts": 103.0,
             "parent_id": 7,
             "attrs": chunk(worker="parent", mode="batched",
                            recv_ts=101.0, done_ts=104.0)},
            {"type": "span", "name": "runtime.sweep", "ts": 100.0,
             "wall_s": 5.0, "cpu_s": 3.0, "span_id": 7, "parent_id": None,
             "depth": 0, "attrs": {"sweep": "grid", "workers": 1,
                                   "backend": "batched"}},
        ]
        (a,) = profile_trace(records).attributions
        assert a.modes == {"batched": 1}
        (w,) = a.per_worker
        assert w.worker == "parent"
        assert w.dispatch_s == pytest.approx(0.0)  # in-process: no spawn

    def test_reads_from_file(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            "".join(json.dumps(r) + "\n" for r in sweep_records())
        )
        prof = profile_trace(str(path))
        assert prof.attributions[0].sweep == "fig9"


class TestFoldedStacks:
    def test_self_time_paths(self):
        records = [
            {"type": "span", "name": "child", "span_id": 2, "parent_id": 1,
             "depth": 1, "wall_s": 0.4},
            {"type": "span", "name": "root", "span_id": 1, "parent_id": None,
             "depth": 0, "wall_s": 1.0},
        ]
        assert folded_stacks(records) == [
            "root 600000",
            "root;child 400000",
        ]

    def test_repeated_paths_aggregate(self):
        records = [
            {"type": "span", "name": "leaf", "span_id": i, "parent_id": None,
             "depth": 0, "wall_s": 0.25}
            for i in (1, 2, 3)
        ]
        assert folded_stacks(records) == ["leaf 750000"]

    def test_missing_parent_truncates_path(self):
        records = [{"type": "span", "name": "stray", "span_id": 5,
                    "parent_id": 99, "depth": 3, "wall_s": 0.1}]
        assert folded_stacks(records) == ["stray 100000"]


class TestFormatting:
    def test_attribution_table(self):
        a = attribute_chunks(
            [chunk(), chunk(worker="pid:2", recv_ts=102.0, done_ts=104.0,
                            wall_s=1.5)],
            wall_s=6.0, workers=2, start_ts=100.0, sweep="fig9",
        )
        text = format_attribution(a)
        assert "sweep 'fig9'" in text
        assert "pid:1" in text and "pid:2" in text
        assert "pool capacity" in text
        assert "mem peak" not in text  # no memory sampling in these chunks

    def test_mem_column_appears_when_sampled(self):
        a = attribute_chunks([chunk(mem_peak_kb=2048.0)], wall_s=6.0,
                             workers=1, start_ts=100.0)
        text = format_attribution(a)
        assert "mem peak" in text and "2.0 MB" in text

    def test_format_profile_empty(self):
        prof = profile_trace([{"type": "meta", "schema": 1, "ts": 1.0}])
        assert "no runtime.chunk dispatch records" in format_profile(prof)


class TestCliProfile:
    def write_trace(self, tmp_path, records):
        path = tmp_path / "t.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        return path

    def test_profile_command_prints_attribution(self, tmp_path, capsys):
        from repro.cli import main

        path = self.write_trace(tmp_path, sweep_records())
        assert main(["obs", "profile", str(path)]) == 0
        out = capsys.readouterr().out
        assert "sweep 'fig9'" in out and "pool capacity" in out

    def test_profile_json_output(self, tmp_path, capsys):
        from repro.cli import main

        path = self.write_trace(tmp_path, sweep_records())
        assert main(["obs", "profile", str(path), "--json"]) == 0
        (entry,) = json.loads(capsys.readouterr().out)
        assert entry["sweep"] == "fig9"
        assert entry["workers"] == 2

    def test_profile_writes_folded_stacks(self, tmp_path):
        from repro.cli import main

        path = self.write_trace(tmp_path, sweep_records())
        folded = tmp_path / "t.folded"
        assert main(["obs", "profile", str(path),
                     "--folded", str(folded)]) == 0
        lines = folded.read_text().splitlines()
        assert lines == ["runtime.sweep 6000000"]

    def test_profile_without_dispatch_records_fails(self, tmp_path):
        from repro.cli import main

        records = [r for r in sweep_records() if r["type"] != "event"]
        path = self.write_trace(tmp_path, records)
        # a sweep asked for by name must have been attributed
        assert main(["obs", "profile", str(path), "--sweep", "fig9"]) == 1

    def test_profile_fully_resumed_sweep_succeeds(self, tmp_path, capsys):
        from repro.cli import main

        path = self.write_trace(tmp_path, resumed_sweep_records())
        assert main(["obs", "profile", str(path)]) == 0
        out = capsys.readouterr().out
        assert "sweep 'fig9'" in out and "resumed" in out

    def test_profile_sweep_filter(self, tmp_path, capsys):
        from repro.cli import main

        path = self.write_trace(tmp_path, sweep_records())
        assert main(["obs", "profile", str(path), "--sweep", "fig9*"]) == 0
        capsys.readouterr()
        # a non-matching glob filters everything out -> same exit as empty
        assert main(["obs", "profile", str(path), "--sweep", "nope"]) == 1

    def test_profile_missing_file(self, tmp_path):
        from repro.cli import main

        assert main(["obs", "profile", str(tmp_path / "absent.jsonl")]) == 1

    def test_profile_simulate_trace_ranks_spans_by_self_time(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        path = tmp_path / "sim.jsonl"
        assert main(["simulate", "--n-aps", "2", "--n-clients", "2",
                     "--duration", "0.05", "--seed", "3", "--no-ledger",
                     "--trace", str(path)]) == 0
        capsys.readouterr()
        rows = hot_span_rows(path)
        assert main(["obs", "profile", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("no runtime.chunk dispatch records in trace")
        table = out.splitlines()
        header = table.index(rows[0])
        assert table[header:header + len(rows)] == rows
        assert "mac.run" in out and "phase_sync" in out
        # --top K keeps the header and the K hottest rows
        assert main(["obs", "profile", str(path), "--top", "3"]) == 0
        table = capsys.readouterr().out.splitlines()
        header = table.index(rows[0])
        assert table[header:header + 4] == rows[:4]
        assert "records, root wall time" in table[header + 4]

    def test_profile_malformed_line_exits_one(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(sweep_records()[0]) + "\n{not json\n")
        assert main(["obs", "profile", str(path)]) == 1
        err = capsys.readouterr().err
        assert "ERROR" in err and "malformed trace" in err
        assert "Traceback" not in err

    def test_profile_non_object_record_exits_one(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(sweep_records()[0]) + "\n[1, 2]\n")
        assert main(["obs", "profile", str(path)]) == 1

    def test_profile_trace_without_spans_exits_one(self, tmp_path):
        from repro.cli import main

        path = self.write_trace(tmp_path, sweep_records()[:2])  # meta + event
        assert main(["obs", "profile", str(path)]) == 1


def hot_span_rows(path):
    """Reference hot-span rows: header + one row per name, by self time.

    A one-pass aggregation that relies on the trace writing children
    before their parents, independent of the profiler's own reader.
    """
    stats, child_wall = {}, {}
    with open(path) as f:
        records = [json.loads(line) for line in f if line.strip()]
    for r in records:
        if r["type"] != "span":
            continue
        wall = r["wall_s"]
        own = child_wall.pop(r["span_id"], 0.0)
        s = stats.setdefault(r["name"], [0, 0.0, 0.0, 0.0, 0.0, 0])
        s[0] += 1
        s[1] += wall
        s[2] += max(wall - own, 0.0)
        s[3] = max(s[3], wall)
        s[4] += r.get("cpu_s", 0.0)
        s[5] += "error" in r
        if r.get("parent_id") is not None:
            child_wall[r["parent_id"]] = child_wall.get(r["parent_id"], 0.0) + wall
    rows = [
        f"{'span':<28} {'count':>7} {'total(ms)':>10} {'self(ms)':>10} "
        f"{'mean(ms)':>9} {'max(ms)':>9} {'cpu(ms)':>9} {'err':>4}"
    ]
    for name, (n, total, self_s, mx, cpu, err) in sorted(
        stats.items(), key=lambda kv: kv[1][2], reverse=True
    ):
        rows.append(
            f"{name:<28} {n:>7d} {total * 1e3:>10.2f} {self_s * 1e3:>10.2f} "
            f"{total / n * 1e3:>9.3f} {mx * 1e3:>9.3f} {cpu * 1e3:>9.2f} "
            f"{err:>4d}"
        )
    return rows
