import importlib.util
import json
import os
import platform
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import layres
from layres import SpectralParams, cli, resonance
from layres.cli import ConfigError, _plot_script, _write_json, main, parse_config, run

MINIMAL = """
[run]
mode = eigenvalues
n_max = 5

[coupling]
alpha = 0.0
beta = 0.4
"""

DISK_SURFACE = """
[surface]
family = disk
center = 1.0 0.0 1.0
normal = 0.0 0.0 1.0
radius = 0.5
"""


class TestParseConfig:
    def test_minimal_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.mode == "eigenvalues"
        assert cfg.l == 2 and cfg.order == 16
        assert cfg.format == "csv"
        # defaults are materialized and echoed
        assert cfg.resolved["order"] == 16

    def test_unknown_key_names_line(self):
        text = "[coupling]\nbetta = 0.4\n"
        with pytest.raises(ConfigError, match=r"line 2.*betta"):
            parse_config(text)

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match=r"line 1.*unknown section"):
            parse_config("[couplings]\nbeta = 0.4\n")

    def test_key_outside_section(self):
        with pytest.raises(ConfigError, match="outside"):
            parse_config("beta = 0.4\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("[coupling]\nbeta = 0.4\nbeta = 0.5\n[run]\nmode = validate\n")

    def test_beta_zero_rejected(self):
        with pytest.raises(ConfigError, match="beta"):
            parse_config("[run]\nmode = validate\n[coupling]\nbeta = 0.0\n")

    def test_beta_required(self):
        with pytest.raises(ConfigError, match="beta"):
            parse_config("[run]\nmode = validate\n")

    def test_mode_required_and_checked(self):
        with pytest.raises(ConfigError, match="mode"):
            parse_config("[coupling]\nbeta = 0.4\n")
        with pytest.raises(ConfigError, match="mode"):
            parse_config("[run]\nmode = resonate\n[coupling]\nbeta = 0.4\n")

    def test_bad_vector(self):
        text = MINIMAL + "[surface]\nfamily = disk\ncenter = 1.0 0.0\n"
        with pytest.raises(ConfigError, match="three components"):
            parse_config(text)

    def test_family_specific_keys_enforced(self):
        text = MINIMAL + (
            "[surface]\nfamily = spherical_cap\ncenter = 1 0 1\n"
            "radius = 0.5\npolar_angle = 0.8\nnormal = 0 0 1\n")
        with pytest.raises(ConfigError, match="does not apply"):
            parse_config(text)

    def test_pole_needs_surface(self, capsys):
        # checked against the mode that runs, so by run(), not by parse_config
        text = "[run]\nmode = pole\n[coupling]\nbeta = 0.4\n"
        assert run(parse_config(text)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and "surface" in err

    def test_unsorted_deltas_rejected(self):
        text = ("[run]\nmode = sweep\n[coupling]\nbeta = 0.4\n"
                + DISK_SURFACE.strip() + "\ndeltas = 0.1 0.05\n")
        with pytest.raises(ConfigError, match="increasing"):
            parse_config(text)

    def test_comments_and_blank_lines(self):
        text = "# header\n\n[run]\nmode = validate  # trailing\n[coupling]\nbeta = 0.4\n"
        assert parse_config(text).mode == "validate"


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


class TestEigenvaluesMode:
    def test_csv_output(self, tmp_path):
        out = tmp_path / "eig.csv"
        cfg = parse_config(MINIMAL + f"[output]\npath = {out}\n")
        assert run(cfg) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        meta = [ln for ln in lines if ln.startswith("#")]
        assert lines[0].startswith("# layres ")
        assert any("config order = 16" in ln for ln in meta)
        body = [ln for ln in lines if not ln.startswith("#")]
        assert body[0] == "n,eps_n,class,window"
        rows = [ln.split(",") for ln in body[1:]]
        assert len(rows) == 5
        assert rows[0][2] == "discrete"
        assert float(rows[0][1]) == pytest.approx(-0.26095, abs=1e-4)
        assert rows[1][2] == "embedded" and rows[1][3] == "1"
        assert [r[3] for r in rows[1:]] == ["1", "2", "3", "4"]

    def test_byte_identical_reruns(self, tmp_path):
        out = tmp_path / "a.csv"
        cfg = parse_config(MINIMAL + f"[output]\npath = {out}\n")
        assert run(cfg) == 0
        first = out.read_bytes()
        assert run(cfg) == 0
        assert out.read_bytes() == first
        assert b"\r" not in first

    def test_long_listing_streams_its_rows(self, tmp_path):
        # the rows are written as they are made: 0.38 MB of CSV at a memory
        # peak of 0.04 MiB, while a listing held whole before writing peaks
        # at 2.3 MiB, above the bound of 0.5 MiB several times over
        out = tmp_path / "eig.csv"
        cfg = parse_config(MINIMAL.replace("n_max = 5", "n_max = 10000")
                           + f"[output]\npath = {out}\n")
        tracemalloc.start()
        try:
            assert run(cfg) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**19
        body = out.read_text(encoding="utf-8").split("n,eps_n,class,window\n")[1]
        listing = resonance.embedded_eigenvalues(cfg.params, range(1, 10001))
        assert body == "".join(f"{i.n},{i.value:.17g},{i.kind},{i.window or -1}\n"
                               for i in listing)

    def test_json_output(self, tmp_path):
        out = tmp_path / "eig.json"
        cfg = parse_config(MINIMAL + f"[output]\npath = {out}\nformat = json\n")
        assert run(cfg) == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["columns"][0] == "n"
        assert len(payload["rows"]) == 5


class TestValidateMode:
    def test_all_pass_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "val.csv"
        cfg = parse_config(
            "[run]\nmode = validate\n[coupling]\nbeta = 0.4\n"
            f"[output]\npath = {out}\n")
        assert run(cfg) == 0
        printed = capsys.readouterr().out
        assert "FAIL" not in printed and "PASS" in printed
        body = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        assert all(ln.endswith(",pass") for ln in body[1:])


class TestPoleMode:
    def test_pole_run(self, tmp_path):
        out = tmp_path / "pole.csv"
        text = ("[run]\nmode = pole\nl = 2\n[coupling]\nbeta = 0.4\n"
                + DISK_SURFACE.strip() + "\ndelta = 0.08\n"
                "[numerics]\norder = 6\n"
                f"[output]\npath = {out}\n")
        cfg = parse_config(text)
        assert run(cfg) == 0
        lines = out.read_text().splitlines()
        assert any(ln.startswith("# n_max = ") for ln in lines)
        assert not any(ln.startswith("# tail_constant") for ln in lines)
        body = [ln for ln in lines if not ln.startswith("#")]
        header = body[0].split(",")
        row = dict(zip(header, body[1].split(",")))
        assert float(row["im_z"]) < 0.0
        assert 1.0 < float(row["re_z"]) < 4.0
        assert float(row["residual"]) < 1e-12

    def test_tiny_disk_exit_zero(self, tmp_path):
        # radius 1e-12: an absolute bound on the area of product integration's
        # corner triangles dropped every one of them, and the run exited 1
        out = tmp_path / "tiny.csv"
        path = _write(tmp_path, "tiny.cfg",
                      "[run]\nmode = pole\nl = 2\n[coupling]\nbeta = 0.4\n"
                      + DISK_SURFACE.strip().replace("radius = 0.5", "radius = 1e-12")
                      + "\ndelta = 0.5\n[numerics]\norder = 6\n")
        assert main(["pole", "--config", path, "--output", str(out)]) == 0
        body = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        row = dict(zip(body[0].split(","), body[1].split(",")))
        assert float(row["im_z"]) <= 0.0 and 1.0 < float(row["re_z"]) < 4.0


class TestSweepMode:
    def test_sweep_with_plot_script(self, tmp_path):
        out = tmp_path / "sweep.csv"
        text = ("[run]\nmode = sweep\nl = 2\n[coupling]\nbeta = 0.4\n"
                + DISK_SURFACE.strip() + "\ndeltas = 0.02 0.035 0.06 0.1\n"
                "[numerics]\norder = 6\n"
                f"[output]\npath = {out}\nemit_plot_script = true\n")
        cfg = parse_config(text)
        assert run(cfg) == 0
        lines = out.read_text().splitlines()
        body = [ln for ln in lines if not ln.startswith("#")]
        assert body[0] == ("delta,re_z,im_z,re_mu,im_mu,im_mu_closed_form,"
                           "residual,iterations,status")
        assert len(body) == 5
        assert all(ln.endswith(",ok") for ln in body[1:])
        fit = {ln.split(" = ")[0][2:]: float(ln.split(" = ")[1])
               for ln in lines if ln.startswith("# fit_")}
        assert 3.8 < fit["fit_im_exponent"] < 4.2
        assert 1.9 < fit["fit_re_exponent"] < 2.1
        script = (tmp_path / "sweep.csv.gp").read_text()
        # columns referenced by header name; plotter never invoked
        assert "column('im_mu')" in script and "im_mu_closed_form" in script
        assert str(out) in script

    def test_plot_script_doubles_single_quotes(self):
        # gnuplot reads '' as one ' inside a single-quoted string
        cfg = parse_config(MINIMAL + "[output]\npath = it's.csv\n")
        plots = [ln for ln in _plot_script(cfg).splitlines() if "using 'delta'" in ln]
        assert len(plots) == 2
        assert all("'it''s.csv' using" in ln for ln in plots)

    def test_failed_point_is_null_in_json(self, tmp_path, monkeypatch):
        real = resonance.find_pole

        def fail_at_0035(state, **kwargs):
            if state.rule.delta == 0.035:
                raise resonance.ConvergenceError("forced failure")
            return real(state, **kwargs)

        monkeypatch.setattr(resonance, "find_pole", fail_at_0035)
        out = tmp_path / "sweep.json"
        text = ("[run]\nmode = sweep\nl = 2\n[coupling]\nbeta = 0.4\n"
                + DISK_SURFACE.strip() + "\ndeltas = 0.02 0.035 0.05 0.07 0.1\n"
                "[numerics]\norder = 4\n"
                f"[output]\npath = {out}\nformat = json\n")
        assert run(parse_config(text)) == 0

        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        payload = json.loads(out.read_text(encoding="utf-8"), parse_constant=reject)
        rows = {row[0]: dict(zip(payload["columns"], row)) for row in payload["rows"]}
        assert rows[0.035]["status"] == "failed"
        assert rows[0.035]["re_z"] is None and rows[0.035]["im_mu_closed_form"] is None
        assert all(isinstance(rows[d]["re_z"], float) for d in (0.02, 0.05, 0.07, 0.1))
        assert [m for m in payload["metadata"] if m.startswith("failure[")] == [
            "failure[0.035000000000000003] = forced failure"]


    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_underflowing_re_mu_keeps_the_poles(self, tmp_path, fmt):
        # r_min = 5.16: every Re mu rounds to 0.0 at Re z ~ 45 and Im mu is
        # ~1e-21; the poles are written, and only the Re mu fit is nan
        out = tmp_path / f"sweep.{fmt}"
        path = _write(tmp_path, "underflow.cfg",
                      "[run]\nmode = sweep\nl = 7\n[coupling]\nalpha = -0.082\nbeta = 0.082\n"
                      "[surface]\nfamily = rectangle\ncenter = 0.926 5.177 1.001\n"
                      "direction1 = -0.748 0.021 -0.618\ndirection2 = -0.22 0.625 0.731\n"
                      "length1 = 0.219\nlength2 = 0.301\ndeltas = 0.0183 0.0238 0.031 0.0402\n"
                      f"[numerics]\norder = 5\n[output]\nformat = {fmt}\n")
        assert main(["sweep", "--config", path, "--output", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        if fmt == "json":
            payload = json.loads(text)
            meta, rows = payload["metadata"], payload["rows"]
            statuses = [row[-1] for row in rows]
        else:
            meta = [ln[2:] for ln in text.splitlines() if ln.startswith("# ")]
            rows = [ln for ln in text.splitlines() if not ln.startswith("#")][1:]
            statuses = [ln.split(",")[-1] for ln in rows]
        assert statuses == ["ok"] * 4
        fits = dict(m.split(" = ") for m in meta if m.startswith("fit_"))
        assert [fits[f"fit_re_{key}"] for key in ("exponent", "prefactor", "r_squared")] \
            == ["nan"] * 3
        assert 3.8 < float(fits["fit_im_exponent"]) < 4.2


class TestMain:
    def test_missing_config_file(self, capsys):
        assert main(["validate", "--config", "/nonexistent.cfg"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_config_error_exit_two(self, tmp_path, capsys):
        path = _write(tmp_path, "bad.cfg", "[coupling]\nbetta = 0.4\n")
        assert main(["validate", "--config", path]) == 2
        assert "betta" in capsys.readouterr().err

    def test_output_and_order_overrides(self, tmp_path):
        path = _write(tmp_path, "eig.cfg", MINIMAL + "[numerics]\norder = 8\n")
        out = tmp_path / "cli.csv"
        assert main(["eigenvalues", "--config", path, "--output", str(out)]) == 0
        text = out.read_text()
        assert "# config order = 8" in text
        assert "# config path = " + str(out) in text

    def test_mode_argument_overrides_config(self, tmp_path, capsys):
        path = _write(tmp_path, "eig.cfg", MINIMAL)
        out = tmp_path / "val.csv"
        assert main(["validate", "--config", path, "--output", str(out)]) == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_validate_passes_every_check(self, tmp_path, fmt):
        path = _write(tmp_path, "val.cfg", "[run]\nmode = validate\n[coupling]\nbeta = 0.4\n"
                      f"[output]\nformat = {fmt}\n")
        out = tmp_path / f"val.{fmt}"
        assert main(["validate", "--config", path, "--output", str(out)]) == 0
        text = out.read_text()
        if fmt == "json":
            rows = json.loads(text)["rows"]
        else:
            rows = [ln.split(",") for ln in text.splitlines() if ln and not ln.startswith("#")]
            assert rows.pop(0) == ["check", "status"]
        assert rows == [[name, "pass"] for name in (
            "gamma_vanishes_at_eigenvalue", "gamma_derivative_law", "prudnikov_cosine_sum",
            "ewald_vs_modal", "edge_of_the_wedge")]

    def test_default_path_names_the_mode_that_runs(self, tmp_path, monkeypatch):
        # [run] mode = eigenvalues, no [output] path, run as validate
        path = _write(tmp_path, "eig.cfg", MINIMAL)
        monkeypatch.chdir(tmp_path)
        assert main(["validate", "--config", path]) == 0
        assert not (tmp_path / "layres_eigenvalues.csv").exists()
        lines = (tmp_path / "layres_validate.csv").read_text().splitlines()
        assert "# config mode = validate" in lines
        assert "# config path = layres_validate.csv" in lines

    def test_pole_mode_without_surface_rejected(self, tmp_path, capsys):
        path = _write(tmp_path, "eig.cfg", MINIMAL)
        assert main(["pole", "--config", path]) == 2
        assert "surface" in capsys.readouterr().err

    def test_mode_checks_follow_the_mode_that_runs(self, tmp_path, capsys):
        # [run] mode = pole without a surface, run as eigenvalues
        path = _write(tmp_path, "eig.cfg", MINIMAL.replace("eigenvalues", "pole"))
        out = tmp_path / "eig.csv"
        assert main(["eigenvalues", "--config", path, "--output", str(out)]) == 0
        assert out.exists()

    @pytest.mark.parametrize("config_mode, deltas, output, message", [
        ("sweep", "0.02 0.04 0.08", "", "at least 4 deltas"),
        ("pole", "0.02 0.04 0.08", "", "at least 4 deltas"),
        ("sweep", "0.02 0.04 0.06 0.08", "format = json\nemit_plot_script = true\n",
         "format = csv"),
    ], ids=["three-deltas", "three-deltas-pole-config", "json-plot-script"])
    def test_sweep_config_errors_exit_two_before_any_pole(self, tmp_path, capsys,
                                                          monkeypatch, config_mode,
                                                          deltas, output, message):
        def no_pole(*args, **kwargs):
            raise AssertionError("a pole was computed")

        for name in ("pole_state", "sweep_delta"):
            monkeypatch.setattr(f"layres.cli.{name}", no_pole)
        out = tmp_path / "sweep.out"
        path = _write(tmp_path, "sweep.cfg",
                      f"[run]\nmode = {config_mode}\nl = 2\n[coupling]\nbeta = 0.4\n"
                      + DISK_SURFACE.strip() + f"\ndeltas = {deltas}\n"
                      f"[numerics]\norder = 4\n[output]\n{output}")
        assert main(["sweep", "--config", path, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and message in err
        assert not out.exists()

    def test_threads_flag(self, tmp_path):
        path = _write(tmp_path, "eig.cfg", MINIMAL)
        out = tmp_path / "t.csv"
        assert main(["eigenvalues", "--config", path, "--output", str(out),
                     "--threads", "1"]) == 0

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exit_two(self, tmp_path, capsys, threads):
        path = _write(tmp_path, "eig.cfg", MINIMAL)
        out = tmp_path / "t.csv"
        assert main(["eigenvalues", "--config", path, "--output", str(out),
                     f"--threads={threads}"]) == 2
        assert "--threads" in capsys.readouterr().err
        assert not out.exists()

    def test_threads_flag_warns_without_threadpoolctl(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setitem(sys.modules, "threadpoolctl", None)  # import fails
        path = _write(tmp_path, "eig.cfg", MINIMAL)
        out = tmp_path / "t.csv"
        assert main(["eigenvalues", "--config", path, "--output", str(out),
                     "--threads", "2"]) == 0
        err = capsys.readouterr().err
        assert "warning" in err and "--threads" in err

    def test_seed_im_alone_seeds_at_eigenvalue(self, tmp_path):
        out = tmp_path / "pole.csv"
        path = _write(tmp_path, "pole.cfg",
                      "[run]\nmode = pole\nl = 2\n[coupling]\nbeta = 0.4\n"
                      + DISK_SURFACE.strip() + "\ndelta = 0.08\n[numerics]\norder = 4\n")
        assert main(["pole", "--config", path, "--output", str(out),
                     "--seed-im=-1e-9"]) == 0
        seed = [ln.split(" = ", 1)[1] for ln in out.read_text().splitlines()
                if ln.startswith("# config seed = ")]
        assert complex(seed[0]) == complex(SpectralParams(0.0, 0.4).eigenvalue(2), -1e-9)

    @pytest.mark.parametrize("mode, extra", [
        ("sweep", DISK_SURFACE.strip() + "\ndeltas = 0.02 0.04 0.06 0.08\n"),
        ("eigenvalues", ""),
    ], ids=["sweep", "eigenvalues"])
    def test_seed_outside_pole_mode_exit_two(self, tmp_path, capsys, mode, extra):
        out = tmp_path / "run.csv"
        path = _write(tmp_path, "run.cfg",
                      f"[run]\nmode = {mode}\nl = 2\n[coupling]\nbeta = 0.4\n"
                      f"{extra}[numerics]\norder = 6\n")
        assert main([mode, "--config", path, "--output", str(out),
                     "--seed-re", "2.5", "--seed-im=-0.1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and "pole mode only" in err
        assert not out.exists()

    @pytest.mark.parametrize("surface_line, numerics_line", [
        ("deltas = 0.02 0.04 0.08 1.5", ""),
        ("", "n_cut = 0"),
        ("", "tail_tol = 0"),
        ("", "root_tol = 1e-13"),
        ("", "root_tol = inf"),
    ], ids=["deltas", "n_cut", "tail_tol", "root_tol", "root_tol-inf"])
    def test_out_of_range_numerics_exit_two(self, tmp_path, capsys, surface_line,
                                            numerics_line):
        # the mode cutoff and the root gate are library constants; a config
        # that still sets one is refused like any unknown key, on its own line
        out = tmp_path / "sweep.csv"
        text = ("[run]\nmode = sweep\nl = 2\n[coupling]\nbeta = 0.4\n"
                + DISK_SURFACE.strip() + f"\n{surface_line}\n"
                f"[numerics]\norder = 6\n{numerics_line}\n")
        path = _write(tmp_path, "range.cfg", text)
        assert main(["sweep", "--config", path, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        if surface_line:
            assert surface_line.split(" = ")[0] in err
        else:
            key = numerics_line.split(" = ")[0]
            assert err == (f"config error: line {len(text.splitlines())}: "
                           f"unknown key {key!r} in [numerics]\n")
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("alpha", "nan"), ("alpha", "inf"), ("beta", "nan"), ("beta", "inf"),
        ("beta", "-inf"), ("radius", "nan"), ("center", "1.0 nan 1.0"),
        ("normal", "0.0 0.0 inf"),
    ])
    def test_non_finite_numbers_exit_two(self, tmp_path, capsys, key, value):
        out = tmp_path / "pole.csv"
        text = ("[run]\nmode = pole\nl = 2\n[coupling]\nalpha = 0.0\nbeta = 0.4\n"
                + DISK_SURFACE.strip() + "\ndelta = 0.08\n[numerics]\norder = 4\n")
        text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, count=1, flags=re.M)
        path = _write(tmp_path, "nonfinite.cfg", text)
        assert main(["pole", "--config", path, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and f"{key} must be a finite number" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--seed-re=nan", "--seed-im=inf", "--seed-re=-inf"])
    def test_non_finite_seed_exit_two(self, tmp_path, capsys, flag):
        out = tmp_path / "pole.csv"
        path = _write(tmp_path, "pole.cfg",
                      "[run]\nmode = pole\nl = 2\n[coupling]\nbeta = 0.4\n"
                      + DISK_SURFACE.strip() + "\ndelta = 0.08\n[numerics]\norder = 4\n")
        assert main(["pole", "--config", path, "--output", str(out), flag]) == 2
        err = capsys.readouterr().err
        name = flag.split("=")[0]
        assert err.startswith("config error") and f"{name} must be a finite number" in err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["pole", "sweep"])
    def test_discrete_eigenvalue_exit_two(self, tmp_path, capsys, mode):
        # eps_1 = xi_alpha + 1 < 1 at beta = 0.4: a bound state, in no window
        out = tmp_path / "discrete.csv"
        path = _write(tmp_path, "l.cfg",
                      "[run]\nmode = pole\nl = 1\n[coupling]\nbeta = 0.4\n"
                      + DISK_SURFACE.strip()
                      + "\ndeltas = 0.02 0.04 0.06 0.08\n[numerics]\norder = 4\n")
        assert main([mode, "--config", path, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: l = 1: eps_l = -0.26")
        assert "discrete" in err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["pole", "sweep", "eigenvalues"])
    def test_threshold_eigenvalue_exit_two(self, tmp_path, capsys, mode):
        # alpha tuned so xi_alpha = -3 at beta = 0.4, putting eps_2 = 1 on the
        # threshold; eigenvalues mode meets it at n = 2 of its default n range
        out = tmp_path / "threshold.csv"
        path = _write(tmp_path, "l.cfg",
                      "[run]\nmode = pole\nl = 2\n[coupling]\n"
                      "alpha = -0.06897371436434314\nbeta = 0.4\n" + DISK_SURFACE.strip()
                      + "\ndeltas = 0.02 0.04 0.06 0.08\n[numerics]\norder = 4\n")
        assert main([mode, "--config", path, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        index = "n" if mode == "eigenvalues" else "l"
        assert err.startswith(f"config error: {index} = 2: eps_{index} = 1.0")
        assert "sits on a threshold" in err
        assert not out.exists()

    @pytest.mark.parametrize("surface, message", [
        (DISK_SURFACE.replace("normal = 0.0 0.0 1.0", "normal = 0 0 0"),
         "normal has zero length"),
        ("[surface]\nfamily = rectangle\ncenter = 1.0 0.0 1.0\ndirection1 = 1 0 0\n"
         "direction2 = 2 0 0\nlength1 = 0.5\nlength2 = 0.5\n", "do not span a plane"),
        (DISK_SURFACE.replace("radius = 0.5", "radius = -0.5"), "radius must be positive"),
        (DISK_SURFACE.replace("radius = 0.5", "radius = 0"), "radius must be positive"),
        ("[surface]\nfamily = rectangle\ncenter = 1.0 0.0 1.0\ndirection1 = 1 0 0\n"
         "direction2 = 0 1 0\nlength1 = 0.5\nlength2 = -0.5\n", "length2 must be positive"),
        # the axis meets the plane 0.0155 from the centre; the grid search of
        # r_min missed it (2.0e-4) and a delta-copy failed with exit 1
        ("[surface]\nfamily = disk\ncenter = -0.001 -0.014 0.97\n"
         "normal = -0.94 0.336 0.582\nradius = 0.561\n", "touches the wire axis"),
    ], ids=["zero-normal", "parallel-directions", "negative-radius", "zero-radius",
            "negative-length2", "pierced-disk"])
    def test_degenerate_surface_exit_two(self, tmp_path, capsys, surface, message):
        out = tmp_path / "pole.csv"
        path = _write(tmp_path, "degenerate.cfg",
                      "[run]\nmode = pole\nl = 2\n[coupling]\nbeta = 0.4\n"
                      + surface.strip() + "\ndelta = 0.08\n[numerics]\norder = 4\n")
        assert main(["pole", "--config", path, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: invalid surface:") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("l", ["0", "-1"])
    def test_mode_index_below_one_exit_two(self, tmp_path, capsys, l):
        out = tmp_path / "pole.csv"
        path = _write(tmp_path, "l.cfg",
                      f"[run]\nmode = pole\nl = {l}\n[coupling]\nbeta = 0.4\n"
                      + DISK_SURFACE.strip() + "\ndelta = 0.08\n[numerics]\norder = 4\n")
        assert main(["pole", "--config", path, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and "l must be >= 1" in err
        assert not out.exists()

    def test_value_error_maps_to_exit_one(self, tmp_path, capsys):
        # a valid disk too wide for the fixed Ewald spectral radius
        out = tmp_path / "wide.csv"
        path = _write(tmp_path, "wide.cfg",
                      "[run]\nmode = pole\nl = 2\n[coupling]\nbeta = 0.4\n"
                      "[surface]\nfamily = disk\ncenter = 6 0 1\nnormal = 0 0 1\n"
                      "radius = 5\ndelta = 1\n[numerics]\norder = 4\n")
        assert main(["pole", "--config", path, "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "spectral radius" in err

    def test_wide_surface_in_a_high_window_exit_one(self, tmp_path, capsys, monkeypatch):
        # eps_7 lies in J_6, where eta is capped at 7/49 and the spectral
        # radius is 1.569: the 2.88-wide disk is refused before any eta_l
        # (it used to exit 0 on kernels off by 1.6e-3)
        calls = []
        real = resonance.eta_l

        def counted(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(resonance, "eta_l", counted)
        out = tmp_path / "wide.csv"
        path = _write(tmp_path, "wide.cfg",
                      "[run]\nmode = pole\nl = 7\n[coupling]\nbeta = 0.4\n"
                      "[surface]\nfamily = disk\ncenter = 3 0 1.5\nnormal = 0 0 1\n"
                      "radius = 1.8\ndelta = 0.8\n[numerics]\norder = 8\n")
        assert main(["pole", "--config", path, "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "spectral radius 1.569 at eta = 0.1429" in err
        assert not calls and not out.exists()

    def test_wide_copy_in_a_sweep_is_refused_before_any_pole(self, tmp_path, capsys,
                                                             monkeypatch):
        # only the delta = 1 copy (pair separation 4.954) is wider than the
        # spectral radius 4.152; its refusal comes before the smaller deltas' poles
        calls = []
        monkeypatch.setattr(resonance, "find_pole", lambda *a, **k: calls.append(a))
        out = tmp_path / "wide.csv"
        path = _write(tmp_path, "wide.cfg",
                      "[run]\nmode = sweep\nl = 2\n[coupling]\nbeta = 0.4\n"
                      "[surface]\nfamily = disk\ncenter = 3 0 1.5\nnormal = 0 0 1\n"
                      "radius = 2.5\ndeltas = 0.1 0.3 0.6 1.0\n[numerics]\norder = 12\n")
        assert main(["sweep", "--config", path, "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == ("error: pair separation rho = 4.954 exceeds the j_max = 32 "
                       "spectral radius 4.152 at eta = 1\n")
        assert not calls and not out.exists()

    @pytest.mark.parametrize("mode", ["pole", "sweep"])
    def test_underflowing_delta_exit_one(self, tmp_path, capsys, monkeypatch, mode):
        # delta^2 w underflows to 0: refused by name before the pair layout
        monkeypatch.setattr(resonance, "pair_layout", None)
        out = tmp_path / "tiny.csv"
        path = _write(tmp_path, "tiny.cfg",
                      f"[run]\nmode = {mode}\nl = 2\n[coupling]\nbeta = 0.4\n"
                      + DISK_SURFACE.strip()
                      + "\ndelta = 1e-300\ndeltas = 5e-324 1e-300 0.1 0.2\n"
                      "[numerics]\norder = 4\n")
        assert main([mode, "--config", path, "--output", str(out)]) == 1
        tiny = "1e-300" if mode == "pole" else "5e-324"
        assert capsys.readouterr().err == (f"error: delta = {tiny} is too small: the copy's "
                                           "quadrature weights delta^2 w underflow to 0\n")
        assert not out.exists()

    @pytest.mark.parametrize("mode, old, new, message", [
        ("pole", "beta = 0.4", "beta = abc", "line 5: beta must be a finite number, got 'abc'"),
        ("pole", "order = 4", "order = 4.5", "line 13: order must be an integer, got '4.5'"),
        ("pole", "order = 4", "order = 4\n[output]\nemit_plot_script = maybe",
         "line 15: emit_plot_script must be true/false, got 'maybe'"),
        ("pole", "l = 2", "l = 2\nverbose", "line 4: expected 'key = value', got 'verbose'"),
        ("pole", "radius = 0.5\n", "", "surface family 'disk' is missing the 'radius' key"),
        ("pole", "family = disk", "family = torus", "line 7: unknown surface family 'torus'"),
        ("pole", "delta = 0.08", "delta = 2", "delta must lie in (0, 1], got 2.0"),
        ("eigenvalues", "l = 2", "l = 2\nn_min = 0", "need 1 <= n_min <= n_max, got 0..5"),
        ("pole", "order = 4", "order = 4\n[output]\nformat = xml",
         "output format must be csv or json, got 'xml'"),
    ], ids=["float", "int", "bool", "no-equals", "missing-radius", "unknown-family",
            "delta-above-one", "n-min-zero", "unknown-format"])
    def test_config_refusal_exit_two(self, tmp_path, capsys, mode, old, new, message):
        text = ("[run]\nmode = pole\nl = 2\n[coupling]\nbeta = 0.4\n" + DISK_SURFACE.strip()
                + "\ndelta = 0.08\n[numerics]\norder = 4\n")
        assert old in text
        out = tmp_path / "out.csv"
        path = _write(tmp_path, "bad.cfg", text.replace(old, new))
        assert main([mode, "--config", path, "--output", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("alpha", ["-60", "-56.5"])
    def test_overflowing_xi_alpha_exit_two(self, tmp_path, capsys, alpha, fmt):
        # xi_alpha = -4 exp(2(-2 pi alpha + psi(1))) overflows: at -60 the
        # exponential itself, at -56.5 the product, to -inf
        out = tmp_path / f"eig.{fmt}"
        path = _write(tmp_path, "alpha.cfg",
                      MINIMAL.replace("alpha = 0.0", f"alpha = {alpha}")
                      + f"[output]\nformat = {fmt}\n")
        assert main(["eigenvalues", "--config", path, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: line 7: alpha = ") and "overflow" in err
        assert not out.exists()

    def test_json_text_is_built_before_the_file_opens(self, tmp_path):
        out = tmp_path / "inf.json"
        with pytest.raises(ValueError):
            _write_json(str(out), ["x"], [[float("inf")]], ["# layres"])
        assert not out.exists()

    def test_missing_output_directory_exit_two(self, tmp_path, capsys):
        path = _write(tmp_path, "eig.cfg",
                      MINIMAL + f"[output]\npath = {tmp_path / 'missing' / 'out.csv'}\n")
        assert main(["eigenvalues", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "No such file or directory" in err

    def test_output_is_a_directory_exit_two(self, tmp_path, capsys):
        path = _write(tmp_path, "eig.cfg", MINIMAL)
        assert main(["eigenvalues", "--config", path, "--output", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Is a directory" in err

    @pytest.mark.parametrize("output, plot, message", [
        ("missing/sweep.csv", "false", "No such file or directory"),
        ("sweep.csv/out.csv", "false", "Not a directory"),
        ("sweep.csv", "true", "Is a directory"),
    ], ids=["missing-directory", "file-as-directory", "plot-script-is-a-directory"])
    def test_unwritable_sweep_output_exit_two_before_any_pole(self, tmp_path, capsys,
                                                              monkeypatch, output, plot,
                                                              message):
        def no_pole(*args, **kwargs):
            raise AssertionError("a pole was computed")

        for name in ("pole_state", "sweep_delta"):
            monkeypatch.setattr(f"layres.cli.{name}", no_pole)
        kept = tmp_path / "sweep.csv"
        kept.write_text("kept\n")
        (tmp_path / "sweep.csv.gp").mkdir()
        path = _write(tmp_path, "sweep.cfg",
                      "[run]\nmode = sweep\nl = 2\n[coupling]\nbeta = 0.4\n"
                      + DISK_SURFACE.strip() + "\n[numerics]\norder = 4\n"
                      f"[output]\nemit_plot_script = {plot}\n")
        assert main(["sweep", "--config", path, "--output", str(tmp_path / output)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        # nothing is created or truncated
        assert kept.read_text() == "kept\n"
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("config_order", [1], ids=["config"])
    def test_order_below_two_exit_two(self, tmp_path, capsys, config_order):
        path = _write(tmp_path, "eig.cfg", MINIMAL + f"[numerics]\norder = {config_order}\n")
        out = tmp_path / "eig.csv"
        assert main(["eigenvalues", "--config", path, "--output", str(out)]) == 2
        assert capsys.readouterr().err == "config error: quadrature order must be >= 2\n"
        assert not out.exists()

    def test_empty_output_path_exit_two_before_any_pole(self, tmp_path, capsys, monkeypatch):
        def no_pole(*args, **kwargs):
            raise AssertionError("a pole was computed")

        monkeypatch.setattr("layres.cli.find_pole", no_pole)
        monkeypatch.chdir(tmp_path)
        path = _write(tmp_path, "pole.cfg", "[run]\nmode = pole\nl = 2\n[coupling]\n"
                      "beta = 0.4\n" + DISK_SURFACE.strip()
                      + "\n[numerics]\norder = 4\n[output]\npath =\n")
        assert main(["pole", "--config", path]) == 2
        assert capsys.readouterr().err == "config error: [output] path is empty\n"
        assert sorted(os.listdir(tmp_path)) == ["pole.cfg"]

    def test_empty_output_flag_exit_two(self, tmp_path, capsys, monkeypatch):
        # an empty --output is refused, not replaced by the config's path
        monkeypatch.chdir(tmp_path)
        path = _write(tmp_path, "eig.cfg", MINIMAL + "[output]\npath = kept.csv\n")
        assert main(["eigenvalues", "--config", path, "--output", ""]) == 2
        assert capsys.readouterr().err == "config error: [output] path is empty\n"
        assert sorted(os.listdir(tmp_path)) == ["eig.cfg"]

    def test_config_not_utf8_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bytes.cfg"
        path.write_bytes(b"\xff\xfe[run]\nmode = validate\n")
        assert main(["validate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "can't decode byte 0xff" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("surface, n_cut", [
        (DISK_SURFACE.replace("1.0 0.0 1.0", "0.50001 0.0 1.0") + "delta = 1\n", "1381551"),
    ], ids=["disk-next-to-the-wire"])
    def test_oversized_mode_table_exit_one(self, tmp_path, capsys, monkeypatch,
                                           surface, n_cut):
        # the refused table would take 0.35 GB; no eta_l is evaluated
        def no_pole(*args, **kwargs):
            raise AssertionError("a pole was computed")

        monkeypatch.setattr("layres.cli.find_pole", no_pole)
        out = tmp_path / "pole.csv"
        path = _write(tmp_path, "pole.cfg", "[run]\nmode = pole\nl = 2\n[coupling]\n"
                      "beta = 0.4\n" + surface.strip() + "\n[numerics]\norder = 4\n")
        assert main(["pole", "--config", path, "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: n_cut = {n_cut} modes on 16 nodes (r_min = ")
        assert f"need a mode table of {16 * int(n_cut)} entries; the limit is 5000000" in err
        assert not out.exists()

    @pytest.mark.parametrize("mode, delta_line", [("pole", "delta = 1"),
                                                  ("sweep", "deltas = 0.5 0.6 0.8 1.0")])
    def test_oversized_mode_table_refused_before_the_layout(self, tmp_path, capsys,
                                                            monkeypatch, mode, delta_line):
        # the sweep's only refused delta is its last: no pole is solved and no
        # singular product integral computed before the refusal
        def not_reached(*args, **kwargs):
            raise AssertionError("work was done before the refusal")

        monkeypatch.setattr("layres.bs_operator._product_rows", not_reached)
        monkeypatch.setattr(resonance, "find_pole", not_reached)
        out = tmp_path / f"{mode}.csv"
        path = _write(tmp_path, "near.cfg", f"[run]\nmode = {mode}\nl = 2\n[coupling]\n"
                      "beta = 0.4\n" + DISK_SURFACE.replace("1.0 0.0 1.0", "0.50001 0.0 1.0")
                      + f"{delta_line}\n[numerics]\norder = 4\n")
        assert main([mode, "--config", path, "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: n_cut = 1381551 modes on 16 nodes (r_min = ")
        assert "need a mode table of 22104816 entries; the limit is 5000000" in err
        assert not out.exists()

    @pytest.mark.parametrize("order, refused", [(48, True), (47, False), (2000, True)])
    def test_quadrature_order_past_the_table_limit_exit_one(self, tmp_path, capsys,
                                                            monkeypatch, order, refused):
        # 48^4 node pairs exceed the 5e6 table entries, 47^4 do not; the
        # distance matrix, the first n x n array, is never built on either side,
        # and a refused order builds no rule (at order 2000 the rules took 858 MB)
        class Reached(Exception):
            pass

        def not_reached(*args):
            raise Reached

        monkeypatch.setattr("layres.bs_operator._node_distances", not_reached)
        if refused:
            monkeypatch.setattr(resonance, "build_quadrature", not_reached)
        out = tmp_path / "pole.csv"
        path = _write(tmp_path, "pole.cfg", "[run]\nmode = pole\nl = 2\n[coupling]\n"
                      "beta = 0.4\n" + DISK_SURFACE.strip()
                      + f"\ndelta = 0.08\n[numerics]\norder = {order}\n")
        argv = ["pole", "--config", path, "--output", str(out)]
        if not refused:
            with pytest.raises(Reached):
                main(argv)
            return
        assert main(argv) == 1
        n = order * order
        assert capsys.readouterr().err == (
            f"error: quadrature order {order} has {n} nodes, whose pair tables need {n * n} "
            "entries; the limit is 5000000\n")
        assert not out.exists()

    def test_eigenvalue_range_past_the_table_limit_exit_two(self, tmp_path, capsys,
                                                            monkeypatch):
        # 10^8 rows would exhaust memory; the range is refused before any eps_n
        def no_window(value):
            raise AssertionError("an eigenvalue was classified")

        monkeypatch.setattr("layres.cli.window_index", no_window)
        out = tmp_path / "eig.csv"
        path = _write(tmp_path, "eig.cfg", MINIMAL.replace("n_max = 5", "n_max = 100000000"))
        assert main(["eigenvalues", "--config", path, "--output", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: n_min..n_max = 1..100000000 asks for 100000000 rows; "
            "the limit is 5000000\n")
        assert not out.exists()

    @pytest.mark.parametrize("flag, function", [("--seed-re=1e300", "E1"),
                                                ("--seed-re=-1e300", "I0"),
                                                ("--seed-im=1e6", "I0"),
                                                ("--seed-im=-3e5", "w_1"),
                                                ("--seed-im=-1e300", "I0")])
    def test_huge_seed_exit_one(self, tmp_path, flag, function):
        # the series of E1 (the Ewald kernel) or I0 (the open-mode vectors)
        # meets |x| ~ 1e299 and refuses it; its term count used to run without
        # end, so the run is a child process that a timeout stops.  A huge
        # imaginary seed makes I0 grow like e^(Re x) off its series, which is
        # refused past Re x = 700, or below that the open-mode vector w_1,
        # which the rank sum would square.  Under -W error, no numpy overflow
        # warning comes before the refusal
        out = tmp_path / "pole.csv"
        path = _write(tmp_path, "pole.cfg", "[run]\nmode = pole\nl = 2\n[coupling]\n"
                      "beta = 0.4\n" + DISK_SURFACE.strip() + "\n[numerics]\norder = 4\n")
        env = dict(os.environ, PYTHONPATH=str(Path(layres.__file__).resolve().parent.parent))
        child = subprocess.run([sys.executable, "-W", "error", "-m", "layres.cli", "pole",
                                "--config", path, "--output", str(out), flag], env=env,
                               capture_output=True, text=True, timeout=60)
        assert child.returncode == 1
        [line] = child.stderr.splitlines()
        assert line.startswith(f"error: {function}(") and "is out of range" in line
        assert "Traceback" not in child.stderr
        assert not out.exists()


_DELTAS = ("0.02 0.025834166841814936 0.033370208820536512 0.043104577110797224 "
           "0.055678541836310623 0.071920436965411033 0.092900228395033188 0.12")

_EIGENVALUES_HEADER = """\
# layres {version}
# config mode = eigenvalues
# config l = 2
# config n_min = 1
# config n_max = 5
# config alpha = 0
# config beta = 0.40000000000000002
# config delta = 0.080000000000000002
# config deltas = {deltas}
# config order = 16
# config path = layres_eigenvalues.csv
# config format = csv
# config emit_plot_script = False
# xi_alpha = -1.2609470067487736
"""

_POLE_HEADER = """\
# layres {version}
# config mode = pole
# config l = 2
# config n_min = 1
# config n_max = 5
# config alpha = 0.050000000000000003
# config beta = 0.40000000000000002
# config delta = 0.080000000000000002
# config deltas = {deltas}
# config order = 5
# config path = {path}
# config format = csv
# config emit_plot_script = False
# config surface.family = disk
# config surface.center = 1.0 0.0 1.0
# config surface.normal = 0.0 0.0 1.0
# config surface.radius = 0.3
# config surface.anchor = 1.1 0.0 1.0
# config surface.delta = 0.08
# config seed = (3.3-0.001j)
# n_max = 13
# n_nodes = 25
"""

_VALIDATE_HEADER = """\
# layres {version}
# config mode = validate
# config l = 2
# config n_min = 1
# config n_max = 5
# config alpha = 0
# config beta = 0.40000000000000002
# config delta = 0.080000000000000002
# config deltas = {deltas}
# config order = 16
# config path = layres_validate.json
# config format = json
# config emit_plot_script = False
# passed = 5
# failed = 0
"""


class TestMetadataHeader:
    """Every ``#`` line, in order and byte for byte, path substituted."""

    @staticmethod
    def _want(template, path=None):
        return template.format(version=layres.__version__, deltas=_DELTAS,
                               path=path).splitlines()

    def test_eigenvalues_defaults(self, tmp_path, monkeypatch):
        path = _write(tmp_path, "eig.cfg", "[run]\nmode = eigenvalues\n[coupling]\nbeta = 0.4\n")
        monkeypatch.chdir(tmp_path)
        assert main(["eigenvalues", "--config", path]) == 0
        lines = (tmp_path / "layres_eigenvalues.csv").read_text(encoding="utf-8").splitlines()
        assert [ln for ln in lines if ln.startswith("#")] == self._want(_EIGENVALUES_HEADER)

    def test_pole_with_overrides(self, tmp_path):
        path = _write(tmp_path, "pole.cfg",
                      "[run]\nmode = pole\nl = 2\n[coupling]\nalpha = 0.05\nbeta = 0.4\n"
                      "[surface]\nfamily = disk\ncenter = 1.0 0.0 1.0\n"
                      "normal = 0.0 0.0 1.0\nradius = 0.3\nanchor = 1.1 0.0 1.0\n"
                      "delta = 0.08\n[numerics]\norder = 5\n")
        out = tmp_path / "pole.csv"
        assert main(["pole", "--config", path, "--output", str(out),
                     "--seed-re", "3.3", "--seed-im", "-0.001"]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert [ln for ln in lines if ln.startswith("#")] == self._want(_POLE_HEADER, out)

    def test_validate_json(self, tmp_path, monkeypatch, capsys):
        path = _write(tmp_path, "val.cfg",
                      "[run]\nmode = validate\n[coupling]\nbeta = 0.4\n"
                      "[output]\nformat = json\n")
        monkeypatch.chdir(tmp_path)
        assert main(["validate", "--config", path]) == 0
        meta = json.loads((tmp_path / "layres_validate.json").read_text())["metadata"]
        assert meta == [ln[2:] for ln in self._want(_VALIDATE_HEADER)]


def test_import_leaves_out_scipy():
    # the program runs on numpy alone; any scipy module would add to every start-up
    env = dict(os.environ, PYTHONPATH=str(Path(layres.__file__).resolve().parent.parent))
    code = ("import sys, layres.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


_VALIDATE = "[run]\nmode = validate\n[coupling]\nbeta = 0.4\n"


class _Libc:
    """A libc handle whose ``mallopt`` appends (param, value) to ``log``."""

    def __init__(self, log):
        def mallopt(param, value):
            log.append(("mallopt", param, value))
            return 1

        self.mallopt = mallopt


class TestAllocatorPolicy:
    def test_main_sets_it_once_before_parsing(self, tmp_path, monkeypatch):
        log = []
        parse = cli.parse_config
        monkeypatch.setattr(cli.ctypes, "CDLL",
                            lambda name: log.append(("CDLL", name)) or _Libc(log))
        monkeypatch.setattr(cli, "parse_config",
                            lambda text: log.append(("parse",)) or parse(text))
        monkeypatch.setattr(cli, "run", lambda config: log.append(("run",)) or 0)
        assert main(["validate", "--config", _write(tmp_path, "v.cfg", _VALIDATE)]) == 0
        # M_MMAP_THRESHOLD = -3 at glibc's 32 MiB maximum, M_TRIM_THRESHOLD = -1
        assert log == [("CDLL", None), ("mallopt", -3, 32 << 20),
                       ("mallopt", -1, 128 << 20), ("parse",), ("run",)]

    @pytest.mark.parametrize("fails", [OSError, TypeError, None],
                             ids=["no-handle", "windows", "no-mallopt"])
    def test_silent_without_mallopt(self, fails, tmp_path, monkeypatch, capsys):
        def cdll(name):
            if fails is None:
                return object()
            raise fails("no libc")

        monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
        monkeypatch.setattr(cli, "run", lambda config: 0)
        assert main(["validate", "--config", _write(tmp_path, "v.cfg", _VALIDATE)]) == 0
        assert capsys.readouterr() == ("", "")

    def test_library_leaves_the_allocator_alone(self):
        # every mallopt lookup on any libc handle is seen, from before the
        # import on; the policy itself is the control
        code = """if True:
            import ctypes
            seen = []
            lookup = ctypes.CDLL.__getattr__
            def spy(self, name):
                seen.append(name)
                return lookup(self, name)
            ctypes.CDLL.__getattr__ = spy
            from layres import SpectralParams, cli
            from layres.geometry import disk
            from layres.resonance import find_pole, pole_state
            surface = disk((1.0, 0.0, 1.0), (0.0, 0.0, 1.0), 0.5)
            find_pole(pole_state(surface, 0.08, 2, SpectralParams(0.0, 0.4), order=6))
            print("mallopt" in seen)
            cli._keep_freed_memory()
            print("mallopt" in seen)
        """
        env = dict(os.environ, PYTHONPATH=str(Path(layres.__file__).resolve().parent.parent))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.split() == ["False", "True"]


_FAULTS = """if True:
    import resource, sys
    from layres import cli
    if sys.argv[2] == "off":
        cli._keep_freed_memory = lambda: None
    inner, faults = cli.run, []
    def counted(config):
        start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        try:
            return inner(config)
        finally:
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start)
    cli.run = counted
    assert cli.main(["sweep", "--config", sys.argv[1], "--output", sys.argv[3]]) == 0
    print(faults[0])
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the policy is glibc's")
def test_policy_cuts_the_page_faults_of_a_run(tmp_path, monkeypatch):
    # the benchmark's order-12 rectangle sweep, each side in a fresh process:
    # without the policy its temporaries are faulted in afresh on every
    # Duffy row and eta_l (about 6x the faults of the run with it)
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    config = _write(tmp_path, "rect.cfg",
                    workloads.WORKLOADS["sweep_rect_wire12"].config(0, "unused.csv"))
    env = dict(os.environ, PYTHONPATH=str(Path(layres.__file__).resolve().parent.parent),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    procs = {side: subprocess.Popen(
        [sys.executable, "-c", _FAULTS, config, side, str(tmp_path / f"{side}.csv")],
        env=env, stdout=subprocess.PIPE, text=True) for side in ("on", "off")}
    out = {side: proc.communicate(timeout=120)[0] for side, proc in procs.items()}
    assert all(proc.returncode == 0 for proc in procs.values())
    assert int(out["on"]) < 0.5 * int(out["off"])
