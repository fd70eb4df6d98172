"""BENCHMARK.json declares exactly what the benchmark emits."""

import json
import os
import re

import pytest
import run
from layers import declared_metrics

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

with open(run.SPEC) as f:
    SPEC = json.load(f)


def test_per_layer_list_is_the_tracer_declaration():
    assert SPEC["per_layer"] == declared_metrics()
    assert 1 <= len(SPEC["per_layer"]) <= 128


def test_every_metric_is_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(metric["name"]), metric
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower"), metric
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_workloads_match_the_runner():
    from workloads import WORKLOADS

    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["command"] == ["python3", "bench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
def test_a_run_emits_every_declared_metric(tmp_path, capsys, trace):
    code = run.main(["--workload", "sim_poisson", "--seed", "2", "--seconds", "0.1",
                     "--trace", str(trace), "--out", str(tmp_path)])
    assert code == 0
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        value = line["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert isinstance(value["value"], float)
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())
    (record,) = [n for n in os.listdir(tmp_path) if n.endswith(".json")]
    with open(tmp_path / record) as f:
        assert json.load(f)["fingerprint"]["usable_cpus"] >= 1


def test_a_tree_without_the_package_is_refused(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(run, "ROOT", str(tmp_path))
    assert run.main(["--workload", "sim_poisson"]) == 2
    assert capsys.readouterr().out == ""
