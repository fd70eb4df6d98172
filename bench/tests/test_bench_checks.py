"""Output checks: a failing check counts against error_frac."""

from types import SimpleNamespace

import numpy as np
from workloads import (
    Fig8And11,
    Fig9,
    JointPhy,
    Simulation,
    Unit,
    consistency_failures,
    sweep_accounting,
    sweep_layer_metrics,
)


def _trace(goodput_bps, loss_rate):
    return SimpleNamespace(
        total_goodput_bps=goodput_bps, loss_rate=loss_rate, n_transmissions=100,
        n_failures=int(100 * loss_rate), n_soundings=3,
        per_client_goodput_bps=np.full(4, goodput_bps / 4), airtime={"data": 0.1})


def test_simulation_check():
    assert Simulation.check(_trace(4e7, 0.08), 1.0).failed == 0
    assert Simulation.check(_trace(4e7, 0.35), 1.0).failed == 1
    assert Simulation.check(_trace(0.0, 0.0), 1.0).failed == 1


def _reception(payload):
    decoded = SimpleNamespace(crc_ok=payload is not None, payload=payload)
    return SimpleNamespace(decoded=decoded, effective_snr_db=25.0, evm_db=-25.0)


def _report(payloads, lost=0):
    return SimpleNamespace(receptions=[_reception(None)] * lost +
                           [_reception(p) for p in payloads[lost:]])


def test_joint_check_catches_corruption_and_lost_streams():
    sent = [[bytes([i]) * 4 for i in range(4)]]
    corrupt = SimpleNamespace(receptions=[_reception(b"oops")] +
                              [_reception(p) for p in sent[0][1:]])
    joint = JointPhy(4, (0,), spacing_s=1e-3)
    assert joint.check(sent, [_report(sent[0])], 1.0).failed == 0
    assert joint.check(sent, [_report(sent[0], lost=1)], 1.0).failed == 0
    assert joint.check(sent, [_report(sent[0], lost=2)], 1.0).failed == 1
    assert joint.check(sent, [corrupt], 1.0).failed == 1


def test_joint_check_bounds_the_loss_rate_of_the_unit():
    sent = [[bytes([i, k]) for i in range(4)] for k in range(10)]
    joint = JointPhy(2, (0,) * 10, spacing_s=1e-3)
    some_lost = [_report(p, lost=2 if k == 3 else 0) for k, p in enumerate(sent)]
    assert joint.check(sent, some_lost, 1.0).failed == 0
    one_dead = [_report(p, lost=4 if k == 3 else 0) for k, p in enumerate(sent)]
    assert joint.check(sent, one_dead, 1.0).failed == 1
    most_lost = [_report(p, lost=2) for p in sent]
    assert joint.check(sent, most_lost, 1.0).failed == 10


def test_sweep_checks():
    cell = SimpleNamespace(megamimo_bps=np.ones(20), baseline_bps=np.ones(20))
    fig9 = SimpleNamespace(cells={("high", 10): cell}, median_gain=lambda b, n: 12.0)
    assert Fig9().check(fig9, 1.0).failed == 20
    fig8 = SimpleNamespace(n_receivers=np.arange(2, 11),
                           inr_db={"high": np.full(9, 2.0)})
    snr = np.arange(-5.0, 26.0, 2.5)
    fig11 = SimpleNamespace(snr_db=snr, throughput_mbps={1: np.ones(snr.size),
                                                         10: np.full(snr.size, 20.0)})
    unit = Fig8And11().check((fig8, fig11), 1.0)
    assert unit.failed == Fig8And11.FIG8_TRIALS


def test_sweep_overheads_become_runtime_metrics():
    overhead = {"sweep": "fig8", "workers": 2, "wall_s": 1.0, "chunks": 10,
                "trials": 40, "modes": {"pool": 9, "retry": 1}, "compute_s": 1.5,
                "dispatch_s": 0.1, "serialization_s": 0.05, "idle_s": 0.35}
    backends, retried = sweep_accounting([overhead])
    assert backends == {"fig8": "process"} and retried == 4
    unit = Unit(1.0, 40, 40, 0, "d", info={"backends": backends}, overheads=[overhead])
    out = sweep_layer_metrics([unit, unit])
    assert out["runtime.utilization"] == 0.75
    assert out["runtime.chunk_failures"] == 1.0
    assert out["runtime.compute_s"] == 1.5
    assert (out["runtime.backend.fig8"], out["runtime.backend.fig9"]) == (3.0, 0.0)


def test_units_that_disagree_fail():
    units = [Unit(1.0, 5, 5, 0, "aaa"), Unit(1.0, 5, 5, 0, "aaa"),
             Unit(1.0, 5, 5, 0, "bbb", traced=True)]
    assert consistency_failures(units)
    assert [u.failed for u in units] == [0, 0, 5]
