"""compare.py verdicts on synthetic result sets."""

import json

import compare
import pytest

SEEDS = range(1, 11)


def _write(directory, workload="sim_poisson", ops=None, setup=None, failed=0):
    directory.mkdir(exist_ok=True)
    for i, seed in enumerate(SEEDS):
        record = {
            "workload": workload, "seed": seed, "trace": 0, "started_ns": i,
            "attempted": 10, "failed": failed if i == 0 else 0,
            "metrics": {
                "setup_s": {"value": setup[i] if setup else 0.8 + 0.001 * i,
                            "unit": "s"},
                "peak_rss_mb": {"value": 60.0 + 0.01 * i, "unit": "MiB"},
                "ops_per_s": {"value": ops[i], "unit": "1/s"},
            },
        }
        with open(directory / f"{workload}-{seed}.json", "w") as f:
            json.dump(record, f)
    return str(directory)


def _ops(level, step=1.0):
    return [level + step * (i % 3) for i in range(len(SEEDS))]


def _verdicts(capsys):
    out = capsys.readouterr().out
    return {line.split()[1]: line.split()[-1] for line in out.splitlines()[1:]
            if line.startswith("sim_poisson")}, out


def test_win_is_a_gain_and_meets_its_claim(tmp_path, capsys):
    base = _write(tmp_path / "base", ops=_ops(1000))
    change = _write(tmp_path / "change", ops=_ops(1200))
    assert compare.main([base, change, "--claim", "sim_poisson:ops_per_s"]) == 0
    verdicts, out = _verdicts(capsys)
    assert verdicts == {"setup_s": "same", "peak_rss_mb": "same", "ops_per_s": "gain"}
    assert "claim sim_poisson:ops_per_s: met" in out


def test_regression_exits_nonzero(tmp_path, capsys):
    base = _write(tmp_path / "base", ops=_ops(1000))
    change = _write(tmp_path / "change", ops=_ops(700))
    assert compare.main([base, change]) == 1
    assert _verdicts(capsys)[0]["ops_per_s"] == "regression"


def test_wide_spread_is_unresolved_not_same(tmp_path, capsys):
    noisy = [600, 1400, 700, 1300, 1000, 900, 1100, 650, 1350, 1000]
    base = _write(tmp_path / "base", ops=noisy)
    change = _write(tmp_path / "change", ops=noisy[::-1])
    assert compare.main([base, change, "--claim", "sim_poisson:ops_per_s"]) == 1
    verdicts, out = _verdicts(capsys)
    assert verdicts["ops_per_s"] == "unresolved"
    assert "claim sim_poisson:ops_per_s: not met" in out


def test_small_steady_change_is_same(tmp_path, capsys):
    base = _write(tmp_path / "base", ops=_ops(1000))
    change = _write(tmp_path / "change", ops=_ops(990))
    assert compare.main([base, change]) == 0
    assert _verdicts(capsys)[0]["ops_per_s"] == "same"


def test_higher_error_frac_exits_nonzero(tmp_path, capsys):
    base = _write(tmp_path / "base", ops=_ops(1000))
    change = _write(tmp_path / "change", ops=_ops(1000), failed=1)
    assert compare.main([base, change]) == 1
    assert "error_frac higher: sim_poisson" in capsys.readouterr().out


@pytest.mark.parametrize("better,base,change,verdict", [
    ("lower", [1.0] * 10, [0.5] * 10, "gain"),
    ("lower", [1.0] * 10, [1.3] * 10, "regression"),
    ("higher", [1.0] * 10, [1.05] * 10, "gain"),
])
def test_direction_of_the_metric(better, base, change, verdict):
    metric = {"name": "m", "better": better, "bound": 0.1}
    assert compare.judge("w", metric, base, change).verdict == verdict
