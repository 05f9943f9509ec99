"""tools/compare_outputs.py on two small layres outputs."""

import importlib.util
import json
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", _TOOL)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)

CSV = """\
# layres 0.1.0
# config path = {path}
# fit_im_exponent = 4.0078751533476522
delta,re_z,im_z,status
0.02,2.7390496577406207,-3.2257837584953791e-11,ok
0.04,2.7391,nan,failed
"""


def _json(path, im_z):
    return json.dumps({"metadata": ["layres 0.1.0", f"config path = {path}"],
                       "columns": ["delta", "im_z"], "rows": [[0.02, im_z]]}, indent=2)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_compare_outputs(tmp_path, capsys, fmt):
    a, b, c = (tmp_path / f"{name}.{fmt}" for name in "abc")
    if fmt == "csv":
        a.write_text(CSV.format(path=a))
        b.write_text(CSV.format(path=b))
        c.write_text(CSV.format(path=c).replace("-3.2257837584953791e-11", "-3.2e-11")
                     .replace("nan,failed", "-1e-12,ok"))
    else:
        a.write_text(_json(a, -3.2257837584953791e-11))
        b.write_text(_json(b, -3.2257837584953791e-11))
        c.write_text(_json(c, None))
    # the config path is all that differs
    assert compare_outputs.main([str(a), str(b)]) == 0
    assert capsys.readouterr().out == "identical\n"
    assert compare_outputs.main([str(a), str(c)]) == 1
    out = capsys.readouterr().out
    if fmt == "csv":
        assert "column delta: max |delta| = 0\n" in out
        # nan in one file only
        assert "column im_z: max |delta| = inf, max |delta|/|A| = inf\n" in out
        assert "column status: 1 of 2 rows differ\n" in out
        assert "config path" not in out
    else:
        assert out == ("column delta: max |delta| = 0\n"
                       "column im_z: max |delta| = inf, max |delta|/|A| = inf\n")


def test_tolerance(tmp_path, capsys):
    # two runs whose poles and fit moved in the last digits
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text(CSV.format(path=a))
    b.write_text(CSV.format(path=b).replace("2.7390496577406207,-3.2257837584953791e-11",
                                            "2.7390496577406212,-3.2257837584953801e-11")
                 .replace("4.0078751533476522", "4.0078751533476529"))
    b_text = b.read_text()
    assert compare_outputs.main(["--tol", "1e-12", str(a), str(b)]) == 0
    assert capsys.readouterr().out == "agree within 1e-12\n"
    assert compare_outputs.main(["--tol", "1e-17", str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "column re_z: max |delta| = 4.44e-16\n" in out
    assert "metadata fit_im_exponent: |delta| = 8.88e-16\n" in out
    assert "column im_z" not in out  # it moved by 1.3e-26
    assert "column delta" not in out  # equal columns agree at any tol
    # nan against a number, text and row counts are never within a tolerance
    b.write_text(b_text.replace("0.04,2.7391,nan,failed", "0.04,2.7391,-1e-12,ok")
                 + "0.06,2.7,0,ok\n")
    assert compare_outputs.main(["--tol", "1", str(a), str(b)]) == 1
    assert capsys.readouterr().out == ("rows: 2 vs 3\n"
                                       "column im_z: max |delta| = inf, max |delta|/|A| = inf\n"
                                       "column status: 1 of 2 rows differ\n")


def test_directories(tmp_path, capsys):
    # a.csv agrees, b.json differs, c.csv is on one side only, notes.txt is not compared
    a, b = tmp_path / "A", tmp_path / "B"
    a.mkdir()
    b.mkdir()
    for d in (a, b):
        (d / "a.csv").write_text(CSV.format(path=d / "a.csv"))
        (d / "notes.txt").write_text(str(d))
    (a / "b.json").write_text(_json(a, -3.2257837584953791e-11))
    (b / "b.json").write_text(_json(b, -3.2e-11))
    (a / "c.csv").write_text(CSV.format(path=a / "c.csv"))
    assert compare_outputs.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out == (
        "== a.csv\nidentical\n== b.json\ncolumn delta: max |delta| = 0\n"
        "column im_z: max |delta| = 2.58e-13, max |delta|/|A| = 0.00799\n"
        f"== c.csv\nmissing in {b}\n")
    (a / "c.csv").unlink()
    assert compare_outputs.main(["--tol", "1e-12", str(a), str(b)]) == 0
    assert capsys.readouterr().out == "== a.csv\nidentical\n== b.json\nagree within 1e-12\n"
    with pytest.raises(SystemExit):
        compare_outputs.main([str(a), str(a / "a.csv")])
    assert "both be directories" in capsys.readouterr().err


def test_relative_width_moves(tmp_path, capsys):
    # the largest relative move of a width can sit in another row than its
    # largest absolute move; --tol still bounds the absolute one
    head = "# layres 0.1.0\n# config path = {}\ndelta,im_z,im_mu,re_z\n"
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text(head.format(a) + "0.02,-1e-10,-2e-10,2.7\n0.04,-1e-20,-3e-20,2.8\n")
    b.write_text(head.format(b) + "0.02,-1.0000000001e-10,-2e-10,2.7000000000000006\n"
                 "0.04,-1.01e-20,0,2.8\n")
    assert compare_outputs.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out == (
        "column delta: max |delta| = 0\n"
        "column im_z: max |delta| = 1e-20, max |delta|/|A| = 0.01\n"
        "column im_mu: max |delta| = 3e-20, max |delta|/|A| = 1\n"
        "column re_z: max |delta| = 4.44e-16\n")
    assert compare_outputs.main(["--tol", "1e-15", str(a), str(b)]) == 0
    assert capsys.readouterr().out == "agree within 1e-15\n"
    assert compare_outputs.main(["--tol", "1e-20", str(a), str(b)]) == 1
    assert capsys.readouterr().out == (
        "column im_mu: max |delta| = 3e-20, max |delta|/|A| = 1\n"
        "column re_z: max |delta| = 4.44e-16\n")


def test_largest_pole_move_is_named(tmp_path, capsys):
    # the generated layout: exit codes beside one output per config; the
    # largest |delta z| and the largest relative Im z move sit in different files
    head = ("# layres 0.1.0\n# config path = {}\n# config order = {}\n"
            "# config surface.family = {}\ndelta,re_z,im_z,status\n")
    a, b = tmp_path / "A", tmp_path / "B"
    for d in (a, b):
        d.mkdir()
        (d / "generated_s1.csv").write_text("# seed = 1\nconfig,mode,exit\n"
                                            "generated_s1_000,sweep,0\ngenerated_s1_001,pole,0\n")
    rows = {"000": ("0.02,2.7,-1e-10,ok\n0.8615,2.6,-1e-3,ok\n",
                    "0.02,2.7,-1e-10,ok\n0.8615,2.6,-1.0000001e-3,ok\n"),
            "001": ("0.5,15.7,-2e-12,ok\n", "0.5,15.7,-2.00002e-12,ok\n")}
    for i, family, order in (("000", "spherical_cap", 8), ("001", "disk", 12)):
        for d, body in zip((a, b), rows[i]):
            name = d / f"generated_s1_{i}.csv"
            name.write_text(head.format(name, order, family) + body)
    assert compare_outputs.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["== generated_s1.csv", "identical"]
    assert out[-2:] == [
        "largest |delta z| = 1e-10 in generated_s1_000.csv (spherical_cap, order 8, delta 0.8615)",
        "largest |delta im_z|/|A| = 1e-05 in generated_s1_001.csv (disk, order 12, delta 0.5)"]
