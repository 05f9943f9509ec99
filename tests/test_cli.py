import json
import re
import sys

import pytest

from layres import SpectralParams, resonance
from layres.cli import ConfigError, main, parse_config, run

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
        assert cfg.tail_tol == 1e-12 and cfg.root_tol == 1e-12
        # defaults are materialized and echoed
        assert cfg.resolved["order"] == 16
        assert cfg.resolved["n_cut"] == "auto"

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


    def test_failed_point_is_null_in_json(self, tmp_path, monkeypatch):
        real = resonance.find_pole

        def fail_at_0035(state, **kwargs):
            if state.delta == 0.035:
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


class TestMain:
    def test_missing_config_file(self, capsys):
        assert main(["validate", "--config", "/nonexistent.cfg"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_config_error_exit_two(self, tmp_path, capsys):
        path = _write(tmp_path, "bad.cfg", "[coupling]\nbetta = 0.4\n")
        assert main(["validate", "--config", path]) == 2
        assert "betta" in capsys.readouterr().err

    def test_output_and_order_overrides(self, tmp_path):
        path = _write(tmp_path, "eig.cfg", MINIMAL)
        out = tmp_path / "cli.csv"
        assert main(["eigenvalues", "--config", path,
                     "--output", str(out), "--quad-order", "8"]) == 0
        text = out.read_text()
        assert "# config order = 8" in text
        assert "# config path = " + str(out) in text

    def test_mode_argument_overrides_config(self, tmp_path, capsys):
        path = _write(tmp_path, "eig.cfg", MINIMAL)
        out = tmp_path / "val.csv"
        assert main(["validate", "--config", path, "--output", str(out)]) == 0
        assert "PASS" in capsys.readouterr().out

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
        out = tmp_path / "sweep.csv"
        path = _write(tmp_path, "range.cfg",
                      "[run]\nmode = sweep\nl = 2\n[coupling]\nbeta = 0.4\n"
                      + DISK_SURFACE.strip() + f"\n{surface_line}\n"
                      f"[numerics]\norder = 6\n{numerics_line}\n")
        assert main(["sweep", "--config", path, "--output", str(out)]) == 2
        key = (surface_line or numerics_line).split(" = ")[0]
        assert key in capsys.readouterr().err
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

    @pytest.mark.parametrize("mode", ["pole", "sweep"])
    def test_threshold_eigenvalue_exit_two(self, tmp_path, capsys, mode):
        # alpha tuned so xi_alpha = -3 at beta = 0.4, putting eps_2 = 1 on the threshold
        out = tmp_path / "threshold.csv"
        path = _write(tmp_path, "l.cfg",
                      "[run]\nmode = pole\nl = 2\n[coupling]\n"
                      "alpha = -0.06897371436434314\nbeta = 0.4\n" + DISK_SURFACE.strip()
                      + "\ndeltas = 0.02 0.04 0.06 0.08\n[numerics]\norder = 4\n")
        assert main([mode, "--config", path, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: l = 2: eps_l = 1.0")
        assert "sits on a threshold" in err
        assert not out.exists()

    @pytest.mark.parametrize("surface, message", [
        (DISK_SURFACE.replace("normal = 0.0 0.0 1.0", "normal = 0 0 0"),
         "normal has zero length"),
        ("[surface]\nfamily = rectangle\ncenter = 1.0 0.0 1.0\ndirection1 = 1 0 0\n"
         "direction2 = 2 0 0\nlength1 = 0.5\nlength2 = 0.5\n", "do not span a plane"),
    ], ids=["zero-normal", "parallel-directions"])
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
