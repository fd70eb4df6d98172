"""The outside-in tracer: accounting, transparency and pool workers."""

import os

import pytest
from layers import LAYERS, Layer, LayerTracer
from workloads import digest, sweep_accounting


class FakeClock:
    def __init__(self, ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_self_time_excludes_wrapped_children(tmp_path):
    # outer [0, 10] calls inner twice: [1, 3] and [4, 7]
    tracer = LayerTracer(str(tmp_path), clock=FakeClock([0, 1, 3, 4, 7, 10]))
    inner = tracer.wrap(Layer("t.inner", ()), lambda: None)

    def body():
        inner()
        inner()
        return "done"

    outer = tracer.wrap(Layer("t.outer", (), root=True), body)
    assert outer() == "done"
    assert tracer.stats["t.outer"] == [1, 5.0]
    assert tracer.stats["t.inner"] == [2, 5.0]
    assert tracer.root_s == 10.0 and tracer.root_child_s == 5.0
    by_name = {}
    for span_id, name, start, end, parent, op in tracer.spans:
        by_name.setdefault(name, []).append((span_id, start, end, parent, op))
    (outer_id, *_, outer_parent, outer_op), = by_name["t.outer"]
    assert outer_parent is None and outer_op == 1
    assert [(s, e, p, o) for _, s, e, p, o in by_name["t.inner"]] == [
        (1, 3, outer_id, 1), (4, 7, outer_id, 1)]


def test_calls_outside_a_root_start_no_op(tmp_path):
    tracer = LayerTracer(str(tmp_path), clock=FakeClock([0, 2]))
    leaf = tracer.wrap(Layer("t.leaf", ()), lambda x: x + 1)
    assert leaf(1) == 2
    assert tracer.stats["t.leaf"] == [1, 2.0]
    assert tracer.root_s == 0.0 and tracer.spans[0][-1] is None


def test_install_and_uninstall_swap_every_copy(tmp_path):
    import repro.core.system as system
    import repro.sim.fastsim as fastsim
    from repro.core import beamforming
    from repro.phy.coding.convolutional import ConvolutionalCode

    zf, decode = beamforming.zero_forcing_precoder, ConvolutionalCode.decode
    tracer = LayerTracer(str(tmp_path))
    tracer.install()
    try:
        assert beamforming.zero_forcing_precoder is not zf
        assert system.zero_forcing_precoder is beamforming.zero_forcing_precoder
        assert ConvolutionalCode.decode is not decode
        assert fastsim.joint_zf_sinr_db.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert beamforming.zero_forcing_precoder is zf
    assert system.zero_forcing_precoder is zf
    assert ConvolutionalCode.decode is decode
    assert not hasattr(fastsim.joint_zf_sinr_db, "__wrapped__")


def test_no_kernel_is_wrapped():
    wrapped = {path.split(":")[1] for layer in LAYERS for path in layer.paths}
    assert not any(name.endswith(("_kernel", "_kernel_batch")) for name in wrapped)


def _fig9_cells():
    from repro.runtime import drain_overheads
    from repro.sim.experiments import run_fig9

    drain_overheads()
    fig9 = run_fig9(seed=4, n_aps=(2,), n_topologies=2, backend="auto")
    backends, retried = sweep_accounting(drain_overheads())
    cells = {f"{b}/{n}": [c.megamimo_bps.tolist(), c.baseline_bps.tolist()]
             for (b, n), c in sorted(fig9.cells.items())}
    return digest(cells), backends, retried


def test_wrappers_do_not_change_fig9_results_or_backend(tmp_path):
    plain = _fig9_cells()
    tracer = LayerTracer(str(tmp_path))
    tracer.install()
    try:
        traced = _fig9_cells()
    finally:
        tracer.uninstall()
    assert traced == plain
    assert plain[1] == {"fig9": "batched"}
    assert tracer.backends == {"fig9": "batched"}
    assert tracer.stats["runtime.run_chunk_batched"][0] == 3


def test_forked_pool_workers_report_through_files(tmp_path):
    from repro.sim.experiments import run_fig8

    tracer = LayerTracer(str(tmp_path))
    tracer.install()
    try:
        run_fig8(seed=2, n_receivers=(2,), n_topologies=4, n_packets=5,
                 workers=2, backend="process")
    finally:
        tracer.uninstall()
    assert tracer.stats["sim.nulling_inr_db"][0] == 0  # not in the parent
    assert tracer.merge_workers() >= 1
    assert tracer.stats["sim.nulling_inr_db"][0] == 3 * 4 * 5
    assert tracer.stats["runtime.run_chunk"][0] == 3
    assert tracer.backends == {"fig8": "process"}
    assert not [n for n in os.listdir(tmp_path) if n.startswith("worker-")]


@pytest.mark.parametrize("layer", LAYERS, ids=lambda layer: layer.metric)
def test_every_layer_path_resolves(layer):
    from layers import _resolve

    for path in layer.paths:
        assert _resolve(path, layer.subclasses)
