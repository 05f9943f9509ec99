"""tools/workload_outputs.py: the seed-0 outputs pass the pole gate; the generated layout."""

import importlib.util
from pathlib import Path

from layres.cli import parse_config

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "workload_outputs.py"
_spec = importlib.util.spec_from_file_location("workload_outputs", _TOOL)
workload_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workload_outputs)


def test_seed_zero_outputs_pass_the_pole_gate(tmp_path, monkeypatch):
    monkeypatch.setattr(workload_outputs, "GENERATED", ())
    assert workload_outputs.main([str(tmp_path), "--seeds", "0"]) == 0
    wl = workload_outputs.load_workloads()
    reference = wl.load_reference()
    for name, workload in wl.WORKLOADS.items():
        assert (tmp_path / f"{name}_s0.cfg").read_text() \
            == workload.config(0, str(tmp_path / f"{name}_s0.csv"))
        meta, rows = wl.read_csv(tmp_path / f"{name}_s0.csv")
        verdicts = wl.check_poles(workload, meta, rows, reference[name])
        assert len(verdicts) == len(workload.deltas)
        assert verdicts == dict.fromkeys(verdicts), verdicts


def test_failed_run_is_named(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(workload_outputs, "GENERATED", ((5, 1, (3, 3)),))
    # a source directory without layres fails every run
    empty = tmp_path / "empty"
    empty.mkdir()
    assert workload_outputs.main([str(tmp_path / "out"), "--src", str(empty),
                                  "--seeds", "3"]) == 1
    names = [f"{name}_s3" for name in workload_outputs.load_workloads().WORKLOADS]
    names.append("generated_s5")
    assert capsys.readouterr().err.splitlines()[-1] == "failed: " + " ".join(names)


def test_generated_batch_is_written(tmp_path):
    workload_outputs.write_generated(tmp_path, 4, 4, 3, 4)
    lines = (tmp_path / "generated_s4.csv").read_text().splitlines()
    assert lines[:4] == ["# seed = 4", "# count = 4", "# orders = 3 4", "config,mode,exit"]
    read_csv = workload_outputs.load_workloads().read_csv
    assert len(lines) == 8
    for i, line in enumerate(lines[4:]):
        name, mode, code = line.split(",")
        assert name == f"generated_s4_{i:03d}" and code in ("0", "1", "2")
        text = (tmp_path / f"{name}.cfg").read_text()
        assert text.startswith(f"[run]\nmode = {mode}\n")
        assert text.endswith(f"[output]\npath = {tmp_path / name}.csv\n")
        # refused or failed runs leave no output; a run writes one row per delta
        output = tmp_path / f"{name}.csv"
        assert output.exists() == (code == "0")
        if code == "0":
            config = parse_config(text)
            _, rows = read_csv(output)
            assert len(rows) == (len(config.deltas) if mode == "sweep" else 1)
