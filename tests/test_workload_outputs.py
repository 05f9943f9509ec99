"""tools/workload_outputs.py: the seed-0 outputs it writes pass the pole gate."""

import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "workload_outputs.py"
_spec = importlib.util.spec_from_file_location("workload_outputs", _TOOL)
workload_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workload_outputs)


def test_seed_zero_outputs_pass_the_pole_gate(tmp_path):
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


def test_failed_run_is_named(tmp_path, capsys):
    # a source directory without layres fails every run
    empty = tmp_path / "empty"
    empty.mkdir()
    assert workload_outputs.main([str(tmp_path / "out"), "--src", str(empty),
                                  "--seeds", "3"]) == 1
    names = [f"{name}_s3" for name in workload_outputs.load_workloads().WORKLOADS]
    assert capsys.readouterr().err.splitlines()[-1] == "failed: " + " ".join(names)
