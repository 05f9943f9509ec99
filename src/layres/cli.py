"""Config-driven command line front end.

Config files are line-oriented ``key = value`` entries grouped under
``[section]`` headers; ``#`` starts a comment.  Parsing is fail-closed:
unknown sections or keys abort with the offending line number before any
computation starts.  Recognized layout::

    [run]
    mode = pole            # eigenvalues | pole | sweep | validate
    l = 2
    n_min = 1              # eigenvalues mode
    n_max = 5

    [coupling]
    alpha = 0.0
    beta = 0.4

    [surface]
    family = disk          # disk | rectangle | spherical_cap
    center = 1.0 0.0 1.0
    normal = 0.0 0.0 1.0   # disk only
    radius = 0.5           # disk / spherical_cap
    polar_angle = 0.8      # spherical_cap only
    direction1 = 1 0 0     # rectangle only
    direction2 = 0 1 0
    length1 = 0.4
    length2 = 0.4
    anchor = 1.5 0.0 1.0   # optional scaling fixed point
    delta = 0.08           # pole mode
    deltas = 0.02 0.04 0.06 0.08  # sweep mode, >= 4; default 8 log-spaced in [0.02, 0.12]

    [numerics]
    order = 16
    tail_tol = 1e-12
    root_tol = 1e-12
    n_cut = 60             # optional mode-sum override

    [output]
    path = run.csv         # default layres_<mode>.<format>, for the mode that runs
    format = csv           # csv | json
    emit_plot_script = false   # csv only; writes a gnuplot script of a sweep

Exit codes: 0 success, 1 computation failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np
from scipy.special import kv

from . import __version__
from .geometry import Surface, SurfaceValidationError, disk, rectangle_patch, \
    spherical_cap, with_anchor
from .greens import calibrate_tail_constant, k0_cosine_sum, layer_green, \
    layer_green_modal
# calibrate_tail_constant, fit_power_law and im_mu_closed_form are unused here
# but stay importable as cli attributes: perfbench/spans.py wraps every name it
# traces on this module
from .resonance import MIN_SWEEP_POINTS, embedded_eigenvalues, find_pole, \
    fit_power_law, im_mu_closed_form, pole_state, sweep_delta, window_index
from .specfun import SpectralParams, first_sheet, gamma_from_gap, second_sheet

__all__ = ["ConfigError", "RunConfig", "parse_config", "run", "main"]


class ConfigError(ValueError):
    """Malformed or invalid configuration; maps to exit code 2."""


_SECTION_KEYS = {
    "run": {"mode", "l", "n_min", "n_max"},
    "coupling": {"alpha", "beta"},
    "surface": {"family", "center", "normal", "radius", "polar_angle",
                "direction1", "direction2", "length1", "length2", "anchor",
                "delta", "deltas"},
    "numerics": {"order", "tail_tol", "root_tol", "n_cut"},
    "output": {"path", "format", "emit_plot_script"},
}

_FAMILY_KEYS = {
    "disk": {"family", "center", "normal", "radius", "anchor", "delta", "deltas"},
    "rectangle": {"family", "center", "direction1", "direction2", "length1",
                  "length2", "anchor", "delta", "deltas"},
    "spherical_cap": {"family", "center", "radius", "polar_angle", "anchor",
                      "delta", "deltas"},
}

_MODES = ("eigenvalues", "pole", "sweep", "validate")

_DEFAULT_DELTAS = tuple(float(d) for d in np.geomspace(0.02, 0.12, 8))


@dataclass
class RunConfig:
    mode: str
    params: SpectralParams
    surface: Surface | None
    l: int
    n_min: int
    n_max: int
    delta: float
    deltas: tuple
    order: int
    tail_tol: float
    root_tol: float
    n_cut: int | None
    path: str | None  # None: run() names it after the mode that runs
    format: str
    emit_plot_script: bool
    seed: complex | None = None
    resolved: dict = field(default_factory=dict)


def _parse_lines(text: str):
    """(section, key, value, line_number) tuples with fail-closed checks."""
    section = None
    for num, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTION_KEYS:
                raise ConfigError(f"line {num}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {num}: expected 'key = value', got {raw!r}")
        if section is None:
            raise ConfigError(f"line {num}: key outside of any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SECTION_KEYS[section]:
            raise ConfigError(f"line {num}: unknown key {key!r} in [{section}]")
        yield section, key, value, num


def _as_float(value, key, num):
    try:
        x = float(value)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise ConfigError(f"line {num}: {key} must be a finite number, got {value!r}")
    return x


def _as_int(value, key, num):
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"line {num}: {key} must be an integer, got {value!r}") from None


def _as_vec(value, key, num):
    parts = value.split()
    if len(parts) != 3:
        raise ConfigError(f"line {num}: {key} needs three components")
    return tuple(_as_float(p, key, num) for p in parts)


def _as_bool(value, key, num):
    v = value.lower()
    if v in ("true", "yes", "1"):
        return True
    if v in ("false", "no", "0"):
        return False
    raise ConfigError(f"line {num}: {key} must be true/false, got {value!r}")


def _build_surface(raw: dict) -> Surface | None:
    if "family" not in raw:
        return None
    family, _ = raw["family"]
    try:
        if family == "disk":
            s = disk(center=raw["center"][0], normal=raw["normal"][0],
                     radius=raw["radius"][0])
        elif family == "rectangle":
            s = rectangle_patch(center=raw["center"][0],
                                direction1=raw["direction1"][0],
                                direction2=raw["direction2"][0],
                                length1=raw["length1"][0],
                                length2=raw["length2"][0])
        elif family == "spherical_cap":
            s = spherical_cap(sphere_center=raw["center"][0],
                              radius=raw["radius"][0],
                              polar_angle=raw["polar_angle"][0])
        else:
            num = raw["family"][1]
            raise ConfigError(f"line {num}: unknown surface family {family!r}")
        if "anchor" in raw:
            s = with_anchor(s, raw["anchor"][0])
        return s
    except KeyError as exc:
        raise ConfigError(
            f"surface family {family!r} is missing the {exc.args[0]!r} key") from None
    except (SurfaceValidationError, ValueError) as exc:
        raise ConfigError(f"invalid surface: {exc}") from None


def parse_config(text: str) -> RunConfig:
    values: dict[str, dict] = {name: {} for name in _SECTION_KEYS}
    for section, key, value, num in _parse_lines(text):
        if key in values[section]:
            raise ConfigError(f"line {num}: duplicate key {key!r}")
        values[section][key] = (value, num)

    run_sec, coup, surf_sec = values["run"], values["coupling"], values["surface"]
    numer, out = values["numerics"], values["output"]

    if "mode" not in run_sec:
        raise ConfigError("missing required key: [run] mode")
    mode, mode_line = run_sec["mode"]
    if mode not in _MODES:
        raise ConfigError(f"line {mode_line}: mode must be one of {', '.join(_MODES)}")

    if "family" in surf_sec:
        family, fam_line = surf_sec["family"]
        allowed = _FAMILY_KEYS.get(family)
        if allowed is None:
            raise ConfigError(f"line {fam_line}: unknown surface family {family!r}")
        for key, (_, num) in surf_sec.items():
            if key not in allowed:
                raise ConfigError(
                    f"line {num}: key {key!r} does not apply to family {family!r}")

    alpha = _as_float(coup["alpha"][0], "alpha", coup["alpha"][1]) \
        if "alpha" in coup else 0.0
    if "beta" not in coup:
        raise ConfigError("missing required key: [coupling] beta")
    beta = _as_float(coup["beta"][0], "beta", coup["beta"][1])
    if beta == 0.0:
        raise ConfigError(
            f"line {coup['beta'][1]}: beta = 0 switches the impurity off; "
            "the coupling must be nonzero")
    params = SpectralParams(alpha=alpha, beta=beta)

    typed_surface = {}
    for key, (value, num) in surf_sec.items():
        if key in ("center", "normal", "direction1", "direction2", "anchor"):
            typed_surface[key] = (_as_vec(value, key, num), num)
        elif key in ("radius", "polar_angle", "length1", "length2", "delta"):
            typed_surface[key] = (_as_float(value, key, num), num)
        elif key == "deltas":
            ds = tuple(_as_float(p, "deltas", num) for p in value.split())
            typed_surface[key] = (ds, num)
        else:
            typed_surface[key] = (value, num)
    surface = _build_surface(typed_surface)

    delta = typed_surface.get("delta", (0.08, 0))[0]
    deltas = typed_surface.get("deltas", (_DEFAULT_DELTAS, 0))[0]
    if "deltas" in typed_surface and any(
            b <= a for a, b in zip(deltas, deltas[1:])):
        raise ConfigError(
            f"line {typed_surface['deltas'][1]}: deltas must be strictly increasing")
    if not 0.0 < delta <= 1.0:
        raise ConfigError(f"delta must lie in (0, 1], got {delta}")
    if not all(0.0 < d <= 1.0 for d in deltas):
        raise ConfigError(f"every delta in deltas must lie in (0, 1], got {deltas}")

    l = _as_int(run_sec["l"][0], "l", run_sec["l"][1]) if "l" in run_sec else 2
    if l < 1:
        raise ConfigError(f"mode index l must be >= 1, got {l}")
    n_min = _as_int(run_sec["n_min"][0], "n_min", run_sec["n_min"][1]) \
        if "n_min" in run_sec else 1
    n_max = _as_int(run_sec["n_max"][0], "n_max", run_sec["n_max"][1]) \
        if "n_max" in run_sec else 5
    if n_min < 1 or n_max < n_min:
        raise ConfigError(f"need 1 <= n_min <= n_max, got {n_min}..{n_max}")

    order = _as_int(numer["order"][0], "order", numer["order"][1]) \
        if "order" in numer else 16
    if order < 2:
        raise ConfigError("quadrature order must be >= 2")
    tail_tol = _as_float(numer["tail_tol"][0], "tail_tol", numer["tail_tol"][1]) \
        if "tail_tol" in numer else 1e-12
    root_tol = _as_float(numer["root_tol"][0], "root_tol", numer["root_tol"][1]) \
        if "root_tol" in numer else 1e-12
    n_cut = _as_int(numer["n_cut"][0], "n_cut", numer["n_cut"][1]) \
        if "n_cut" in numer else None
    if not 0.0 < tail_tol < 1.0:
        raise ConfigError(f"tail_tol must lie in (0, 1), got {tail_tol}")
    if not root_tol >= 1e-12:
        raise ConfigError(f"root_tol below 1e-12 is not resolvable, got {root_tol}")
    if n_cut is not None and n_cut < 1:
        raise ConfigError(f"n_cut must be >= 1, got {n_cut}")

    fmt = out.get("format", ("csv", 0))[0]
    if fmt not in ("csv", "json"):
        raise ConfigError(f"output format must be csv or json, got {fmt!r}")
    path = out.get("path", (None, 0))[0]
    emit_plot = _as_bool(out["emit_plot_script"][0], "emit_plot_script",
                         out["emit_plot_script"][1]) \
        if "emit_plot_script" in out else False
    if emit_plot and fmt != "csv":
        raise ConfigError("emit_plot_script needs format = csv: the gnuplot script "
                          "reads the output as CSV")

    resolved = {
        "mode": mode, "l": l, "n_min": n_min, "n_max": n_max,
        "alpha": alpha, "beta": beta,
        "delta": delta, "deltas": " ".join(f"{d:.17g}" for d in deltas),
        "order": order, "tail_tol": tail_tol, "root_tol": root_tol,
        "n_cut": "auto" if n_cut is None else n_cut,
        "path": path, "format": fmt, "emit_plot_script": emit_plot,
    }
    for key, (value, _) in surf_sec.items():
        resolved[f"surface.{key}"] = value

    return RunConfig(mode=mode, params=params, surface=surface, l=l,
                     n_min=n_min, n_max=n_max, delta=delta, deltas=deltas,
                     order=order, tail_tol=tail_tol, root_tol=root_tol,
                     n_cut=n_cut, path=path, format=fmt,
                     emit_plot_script=emit_plot, resolved=resolved)


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _metadata(config: RunConfig, extra: dict) -> list[str]:
    lines = [f"# layres {__version__}"]
    for key, value in config.resolved.items():
        lines.append(f"# config {key} = {_fmt(value)}")
    for key, value in extra.items():
        lines.append(f"# {key} = {_fmt(value)}")
    return lines


def _write_csv(path, header, rows, meta):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in meta:
            fh.write(line + "\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _json_value(x):
    """Floats as _fmt writes them; NaN, the value of a failed point, as null."""
    if not isinstance(x, float):
        return x
    return None if math.isnan(x) else float(_fmt(x))


def _write_json(path, header, rows, meta):
    payload = {
        "metadata": [m.lstrip("# ") for m in meta],
        "columns": list(header),
        "rows": [[_json_value(x) for x in row] for row in rows],
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _emit(config, header, rows, extra):
    meta = _metadata(config, extra)
    if config.format == "json":
        _write_json(config.path, header, rows, meta)
    else:
        _write_csv(config.path, header, rows, meta)


def _plot_script(config: RunConfig) -> str:
    csv = config.path
    return "\n".join([
        "# gnuplot script; run: gnuplot <this file>",
        "set datafile separator ','",
        "set key autotitle columnheader",
        "set logscale xy",
        "set xlabel 'delta'",
        "set ylabel '|Im mu|'",
        f"plot '{csv}' using 'delta':(abs(column('im_mu'))) with linespoints, \\",
        f"     '{csv}' using 'delta':(abs(column('im_mu_closed_form'))) "
        "with lines dashtype 2",
        "",
    ])


def _run_eigenvalues(config: RunConfig) -> int:
    info = embedded_eigenvalues(config.params, range(config.n_min, config.n_max + 1))
    rows = [(i.n, i.value, i.kind, -1 if i.window is None else i.window)
            for i in info]
    _emit(config, ("n", "eps_n", "class", "window"),
          rows, {"xi_alpha": config.params.xi_alpha})
    return 0


def _run_pole(config: RunConfig) -> int:
    state = pole_state(config.surface, config.delta, config.l, config.params,
                       order=config.order, tail_tol=config.tail_tol,
                       n_cut=config.n_cut)
    res = find_pole(state, seed=config.seed, tol=config.root_tol)
    rows = [(res.l, res.k, res.delta, res.z.real, res.z.imag, res.mu.real,
             res.mu.imag, res.residual, res.iterations)]
    _emit(config,
          ("l", "k", "delta", "re_z", "im_z", "re_mu", "im_mu", "residual",
           "iterations"),
          rows,
          {"n_max": state.n_cut, "n_nodes": state.rule.n_nodes})
    return 0


def _run_sweep(config: RunConfig) -> int:
    sweep = sweep_delta(config.l, config.deltas, config.surface, config.params,
                        order=config.order, tail_tol=config.tail_tol,
                        n_cut=config.n_cut, tol=config.root_tol)
    converged = {res.delta: (res, cf)
                 for res, cf in zip(sweep.poles, sweep.closed_form_im)}
    nan = float("nan")
    rows = []
    for d in config.deltas:
        if d not in converged:
            rows.append((d, nan, nan, nan, nan, nan, nan, 0, "failed"))
            continue
        res, cf = converged[d]
        rows.append((d, res.z.real, res.z.imag, res.mu.real, res.mu.imag, cf,
                     res.residual, res.iterations, "ok"))
    fit_im, fit_re = sweep.fit_im, sweep.fit_re
    extra = {
        "n_max": sweep.n_cut,
        "fit_im_exponent": fit_im[0], "fit_im_prefactor": fit_im[1],
        "fit_im_r_squared": fit_im[2],
        "fit_re_exponent": fit_re[0], "fit_re_prefactor": fit_re[1],
        "fit_re_r_squared": fit_re[2],
    }
    for d, msg in sweep.failures:
        extra[f"failure[{_fmt(d)}]"] = msg
    _emit(config,
          ("delta", "re_z", "im_z", "re_mu", "im_mu", "im_mu_closed_form",
           "residual", "iterations", "status"),
          rows, extra)
    if config.emit_plot_script:
        script = config.path + ".gp"
        with open(script, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(_plot_script(config))
    return 0


def _validate_checks(params: SpectralParams):
    """Built-in identity suite: (name, passed) pairs, no surface needed."""
    checks = []
    ctx1 = first_sheet()
    x = np.array([1.0, 0.2, 1.3])
    xp = np.array([0.6, -0.1, 0.9])

    g = gamma_from_gap(complex(params.xi_alpha), 3, ctx1, params)
    checks.append(("gamma_vanishes_at_eigenvalue", abs(g) < 1e-12))

    d = 1e-6
    slope = (gamma_from_gap(complex(params.xi_alpha + d), 3, ctx1, params)
             - gamma_from_gap(complex(params.xi_alpha - d), 3, ctx1, params)) / (2 * d)
    want = 1.0 / (4.0 * math.pi * params.xi_alpha)
    checks.append(("gamma_derivative_law", abs(slope - want) < 1e-8))

    n_arr = np.arange(1, 50_001)
    brute = float(np.sum(kv(0, n_arr * 0.5) * np.cos(n_arr * 1.0)))
    checks.append(("prudnikov_cosine_sum", abs(k0_cosine_sum(0.5, 1.0) - brute) < 1e-8))

    split = layer_green(-2.0, x, xp)
    modal = layer_green_modal(-2.0, x, xp, n_max=20_000)
    checks.append(("kernel_split_vs_modal", abs(split - modal) < 1e-9))

    eps = 1e-8
    up = layer_green(2.5 + 1j * eps, x, xp, first_sheet())
    dn = layer_green(2.5 - 1j * eps, x, xp, second_sheet(1))
    checks.append(("edge_of_the_wedge", abs(up - dn) < 1e-6))
    return checks


def _run_validate(config: RunConfig) -> int:
    checks = _validate_checks(config.params)
    rows = [(name, "pass" if ok else "fail") for name, ok in checks]
    n_fail = sum(1 for _, ok in checks if not ok)
    _emit(config, ("check", "status"), rows,
          {"passed": len(checks) - n_fail, "failed": n_fail})
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    return 0 if n_fail == 0 else 1


def _check_mode(config: RunConfig):
    """Checks that depend on the mode; ``config.mode`` is the mode that runs."""
    if config.mode in ("pole", "sweep"):
        if config.surface is None:
            raise ConfigError(f"mode {config.mode} needs a [surface] section with a family")
        eps = config.params.eigenvalue(config.l)
        try:
            window_index(eps)
        except ValueError as exc:
            raise ConfigError(f"l = {config.l}: eps_l = {eps}: {exc}") from None
    if config.mode == "sweep" and len(config.deltas) < MIN_SWEEP_POINTS:
        raise ConfigError(f"a sweep fits power laws to at least {MIN_SWEEP_POINTS} "
                          f"deltas, got {len(config.deltas)}")
    if config.seed is not None and config.mode != "pole":
        raise ConfigError(f"--seed-re and --seed-im apply to pole mode only, "
                          f"not {config.mode}")


def run(config: RunConfig) -> int:
    if config.path is None:
        config.path = config.resolved["path"] = f"layres_{config.mode}.{config.format}"
    try:
        _check_mode(config)
        if config.mode == "eigenvalues":
            return _run_eigenvalues(config)
        if config.mode == "pole":
            return _run_pole(config)
        if config.mode == "sweep":
            return _run_sweep(config)
        return _run_validate(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, ValueError) as exc:
        # ConvergenceError and the solver guards are ArithmeticErrors;
        # threshold collisions, invalid scaled surfaces and numerical range
        # limits (e.g. the Ewald spectral radius) are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser():
    parser = argparse.ArgumentParser(prog="layres", description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=_MODES)
    parser.add_argument("--config", required=True, help="path to the config file")
    parser.add_argument("--output", help="override [output] path")
    parser.add_argument("--threads", type=int, default=None,
                        help="cap BLAS thread count")
    parser.add_argument("--seed-re", type=float, default=None,
                        help="pole-mode root seed, real part")
    parser.add_argument("--seed-im", type=float, default=None,
                        help="pole-mode root seed, imaginary part")
    parser.add_argument("--quad-order", type=int, default=None,
                        help="override [numerics] order")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        config = parse_config(text)
        config.mode = args.mode
        config.resolved["mode"] = args.mode
        if args.output:
            config.path = args.output
            config.resolved["path"] = args.output
        if args.threads is not None and args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        if args.quad_order is not None:
            if args.quad_order < 2:
                raise ConfigError("quadrature order must be >= 2")
            config.order = args.quad_order
            config.resolved["order"] = args.quad_order
        if args.seed_re is not None or args.seed_im is not None:
            for flag, value in (("--seed-re", args.seed_re), ("--seed-im", args.seed_im)):
                if value is not None and not math.isfinite(value):
                    raise ConfigError(f"{flag} must be a finite number, got {value}")
            seed_re = args.seed_re
            if seed_re is None:
                seed_re = config.params.eigenvalue(config.l)
            config.seed = complex(seed_re, args.seed_im or 0.0)
            config.resolved["seed"] = str(config.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.threads is not None:
        try:
            import threadpoolctl

            threadpoolctl.threadpool_limits(args.threads)
        except ImportError:
            print("warning: --threads ignored: threadpoolctl is not installed",
                  file=sys.stderr)
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
