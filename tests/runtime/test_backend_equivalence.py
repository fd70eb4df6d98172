"""Differential harness: every sweep kernel under every execution backend.

Each workload below is a tiny configuration of one of the sweep runners.
The *serial* reference runs it in-parent with one trial per kernel call
(the scalar geometry); for each (workload, backend) pair we assert that
the backend, with its own chunk geometry, reproduces that reference **bit
for bit** — equality is checked on a SHA-256 digest of the canonical-JSON
rendering of the full result payload, so a single ULP of drift anywhere
fails the pair.

Cross-machine stability is pinned separately: a scalar aggregate of each
serial payload is compared against ``tests/data/golden.json`` at rel=1e-9
(digests themselves are compared only within one process, where BLAS/FFT
bitwise reproducibility is guaranteed).
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.obs.events import jsonable
from repro.runtime import CellSpec, CheckpointMismatch, drain_overheads, engine, run_sweep
from repro.sim.ablations import run_sync_strategy_ablation
from repro.sim.experiments import fig6_kernel, run_fig6, run_fig8, run_fig9, run_fig11

GOLDEN = json.loads(
    (Path(__file__).parent.parent / "data" / "golden.json").read_text()
)


def digest(payload) -> str:
    """SHA-256 over the canonical JSON rendering of a result payload."""
    canon = json.dumps(jsonable(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _flatten(obj):
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _flatten(obj[key])
    elif isinstance(obj, list):
        for item in obj:
            yield from _flatten(item)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield float(obj)


def aggregate(payload) -> float:
    """Mean of every number in the payload — the cross-machine fingerprint."""
    values = list(_flatten(jsonable(payload)))
    return sum(values) / len(values)


# ---------------------------------------------------------------------------
# Workload registry: name -> runner(**runtime_kwargs) -> jsonable payload.
# Configurations are deliberately tiny; the point is coverage of every
# sweep kernel, not statistical power.
# ---------------------------------------------------------------------------


def _fig6(**kw):
    res = run_fig6(seed=1, n_channels=8, **kw)
    return {str(s): list(curve) for s, curve in res.reduction_db.items()}


def _fig8(**kw):
    res = run_fig8(seed=3, n_receivers=(2, 3), n_topologies=3, n_packets=2, **kw)
    return {band: list(curve) for band, curve in res.inr_db.items()}


def _fig9(**kw):
    res = run_fig9(seed=4, n_aps=(2, 3), n_topologies=4, **kw)
    return {
        f"{band}/{n}": {
            "megamimo_bps": list(cell.megamimo_bps),
            "baseline_bps": list(cell.baseline_bps),
            "gains": list(cell.per_client_gains),
        }
        for (band, n), cell in sorted(res.cells.items())
    }


def _fig11(**kw):
    res = run_fig11(seed=5, n_aps_list=(2,), snr_db=(0.0, 10.0), n_draws=4, **kw)
    return {str(n): list(curve) for n, curve in res.throughput_mbps.items()}


def _sync_ablation(**kw):
    res = run_sync_strategy_ablation(
        seed=7,
        strategies=("megamimo", "none"),
        delays_s=(2e-3, 50e-3),
        n_systems=2,
        **kw,
    )
    return {s: list(curve) for s, curve in res.misalignment_rad.items()}


WORKLOADS = {
    "fig6": _fig6,
    "fig8": _fig8,
    "fig9": _fig9,
    "fig11": _fig11,
    "sync_ablation": _sync_ablation,
}

BACKEND_KWARGS = {
    "batched": {"backend": "batched"},
    "process": {"backend": "process", "workers": 2},
    "auto": {"backend": "auto", "workers": 2},
}

PAIRS = [
    (workload, backend) for workload in WORKLOADS for backend in BACKEND_KWARGS
]

_serial_cache: dict = {}


def serial_payload(workload: str):
    """The workload run in-parent with one trial per kernel call."""
    if workload not in _serial_cache:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "BATCHED_CHUNK_SIZE", 1)
            _serial_cache[workload] = WORKLOADS[workload](backend="batched")
    return _serial_cache[workload]


@pytest.mark.parametrize(
    "workload,backend", PAIRS, ids=[f"{w}-{b}" for w, b in PAIRS]
)
def test_backend_reproduces_serial_digest(workload, backend):
    reference = digest(serial_payload(workload))
    result = WORKLOADS[workload](**BACKEND_KWARGS[backend])
    assert digest(result) == reference


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_serial_aggregate_matches_golden(workload):
    expected = GOLDEN["backend_equivalence"][workload]
    assert aggregate(serial_payload(workload)) == pytest.approx(expected, rel=1e-9)


def test_per_trial_loop_kernels_run_batched():
    """fig8, fig11 and the sync ablation loop over their seeds; they run
    in-parent under ``batched`` like the stacked kernels."""
    for workload in ("fig8", "fig11", "sync_ablation"):
        drain_overheads()
        WORKLOADS[workload](backend="batched")
        (overhead,) = drain_overheads()
        assert set(overhead["modes"]) == {"batched"}, workload


def test_batched_checkpoint_resume_mid_sweep(tmp_path):
    """Kill a batched sweep mid-flight; the resume must be bit-identical."""
    ck = tmp_path / "fig9.jsonl"
    fresh = _fig9(backend="batched", checkpoint=str(ck))
    lines = ck.read_text().splitlines()
    assert len(lines) > 2  # header + at least two chunk records
    ck.write_text("\n".join(lines[:2]) + "\n")
    resumed = _fig9(backend="batched", checkpoint=str(ck), resume=True)
    assert digest(resumed) == digest(fresh) == digest(serial_payload("fig9"))


def test_pool_checkpoint_resumes_in_parent_at_its_chunk_size(tmp_path):
    """The chunk size is part of the checkpoint header: a pool checkpoint
    resumes in-parent at the pool's chunk size, taken from the header."""
    cells = [
        CellSpec(key=snr, n_trials=6,
                 params={"n_rx": 2, "n_tx": 2, "misalignments": [0.0, 0.25],
                         "snrs_db": [snr]})
        for snr in (10.0, 20.0)
    ]
    ck = tmp_path / "fig6.jsonl"
    fresh = run_sweep("fig6", fig6_kernel, cells, master_seed=12,
                      workers=2, backend="process", checkpoint=str(ck))
    lines = ck.read_text().splitlines()
    ck.write_text("\n".join(lines[:2]) + "\n")
    with pytest.raises(CheckpointMismatch):
        run_sweep("fig6", fig6_kernel, cells, master_seed=12,
                  chunk_size=engine.BATCHED_CHUNK_SIZE,
                  checkpoint=str(ck), resume=True)
    resumed = run_sweep("fig6", fig6_kernel, cells, master_seed=12,
                        checkpoint=str(ck), resume=True)
    assert resumed.resumed_chunks == 1
    assert resumed.results == fresh.results
