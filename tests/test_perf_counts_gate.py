"""The call-count gate (tools/check_perf_counts.py) on synthetic records."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "check_perf_counts.py"
spec = importlib.util.spec_from_file_location("check_perf_counts", TOOL)
gate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(gate)


def _records(scale=None, ops=1000):
    """Traced + untraced smoke records sitting exactly on the pins,
    with ``scale[workload][metric]`` applied on top."""
    records = []
    for workload, pins in gate.PINNED.items():
        factors = (scale or {}).get(workload, {})
        metrics = {
            name: {"value": pin * ops * factors.get(name, 1.0), "unit": "1"}
            for name, pin in pins.items()
        }
        base = {"workload": workload, "ops": ops}
        records.append(dict(base, trace=1, metrics=metrics))
        records.append(dict(base, trace=0, metrics={}))
    return records


def _run(tmp_path, records):
    path = tmp_path / "sets.json"
    path.write_text(json.dumps({"records": records}))
    return gate.main([str(path)])


def test_pins_are_real_counts():
    assert set(gate.PINNED) == {
        "kernel_micro", "game_scaleout", "tpcc_contention", "massive_bulk"
    }
    for pins in gate.PINNED.values():
        assert pins["sim.calls"] > 0 and pins["core.calls"] >= 0


def test_counts_on_or_below_the_pins_pass(tmp_path, capsys):
    assert _run(tmp_path, _records()) == 0
    lower = {"game_scaleout": {"sim.calls": 0.9}, "massive_bulk": {"core.calls": 1.019}}
    assert _run(tmp_path, _records(lower)) == 0
    assert "re-pin" in capsys.readouterr().out


def test_a_count_over_its_pin_fails(tmp_path, capsys):
    over = {"tpcc_contention": {"core.calls": 1.03}}
    assert _run(tmp_path, _records(over)) == 1
    assert "OVER tpcc_contention" in capsys.readouterr().err


def test_a_missing_traced_record_fails(tmp_path):
    records = [
        r for r in _records() if not (r["workload"] == "kernel_micro" and r["trace"])
    ]
    assert _run(tmp_path, records) == 1
