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

    [output]
    path = run.csv         # default layres_<mode>.<format>, for the mode that runs
    format = csv           # csv | json
    emit_plot_script = false   # csv only; writes a gnuplot script of a sweep

A key is one ``_KEYS`` entry (section, parser, default), so a new key is one
entry there, plus a ``RunConfig`` field if a run reads it; a surface family
is one ``_FAMILIES`` entry.  The ``[numerics]`` default shown is the
library's own, ``resonance.DEFAULT_ORDER``; the mode cutoff and the root
gate are the library's constants ``bs_operator.TAIL_TOL`` and
``resonance.ROOT_TOL``, which no config sets.
Every output file echoes the resolved config, ``RunConfig.resolved``, in
its ``#`` header.

:func:`main`, the process entry, first sets glibc's allocator to keep freed
memory for reuse (:func:`_keep_freed_memory`), so a one-shot run does not
page-fault the temporaries of every Duffy row and every eta_l afresh.
Library callers of the other modules keep glibc's defaults.

Exit codes: 0 success, 1 computation failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import ctypes
import errno
import json
import math
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import __version__
from .geometry import Surface, SurfaceValidationError, disk, rectangle_patch, \
    spherical_cap, with_anchor
from .greens import _MAX_TABLE_ENTRIES, EwaldGreen, EwaldSplit, calibrate_tail_constant, \
    k0_cosine_sum, layer_green_modal
# calibrate_tail_constant, fit_power_law and im_mu_closed_form are unused here
# but stay importable as cli attributes: perfbench/spans.py wraps every name it
# traces on this module, and tests/test_trace_targets.py checks that they resolve
from .resonance import DEFAULT_ORDER, MIN_SWEEP_POINTS, embedded_eigenvalues, find_pole, \
    fit_power_law, im_mu_closed_form, pole_state, sweep_delta, window_index
from .specfun import SpectralParams, first_sheet, gamma_from_gap, macdonald_k0, \
    second_sheet

__all__ = ["ConfigError", "RunConfig", "parse_config", "run", "main"]


class ConfigError(ValueError):
    """Malformed or invalid configuration; maps to exit code 2."""


def _echo(value):
    """A resolved value as the header shows it: None is 'auto', a tuple one line."""
    if isinstance(value, tuple):
        return " ".join(map(_fmt, value))
    return "auto" if value is None else value


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
    path: str | None  # None: run() names it after the mode that runs
    format: str
    emit_plot_script: bool
    surface_lines: dict  # [surface] key -> text as written
    seed: complex | None = None

    @property
    def resolved(self) -> dict:
        """The config every output header echoes: fields and couplings in
        ``_KEYS`` order, the ``[surface]`` lines as written, the seed."""
        own = {**vars(self.params), **vars(self)}
        echo = {key: _echo(own[key]) for _, key in _KEYS if key in own}
        echo.update((f"surface.{key}", text) for key, text in self.surface_lines.items())
        if self.seed is not None:
            echo["seed"] = str(self.seed)
        return echo


def _as_text(value, key, num):
    return value


def _as_float(value, key, num):
    try:
        x = float(value)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise ConfigError(f"line {num}: {key} must be a finite number, got {value!r}")
    return x


def _as_floats(value, key, num):
    return tuple(_as_float(p, key, num) for p in value.split())


def _as_int(value, key, num):
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"line {num}: {key} must be an integer, got {value!r}") from None


def _as_vec(value, key, num):
    if len(value.split()) != 3:
        raise ConfigError(f"line {num}: {key} needs three components")
    return _as_floats(value, key, num)


def _as_bool(value, key, num):
    v = value.lower()
    if v in ("true", "yes", "1"):
        return True
    if v in ("false", "no", "0"):
        return False
    raise ConfigError(f"line {num}: {key} must be true/false, got {value!r}")


_REQUIRED = object()

#: (section, key) -> (parser, default): the only list of keys.  Key names are
#: unique across sections; a key whose default is _REQUIRED must be given.
#: The order is the order of the ``# config`` lines.
_KEYS = {
    ("run", "mode"): (_as_text, _REQUIRED),
    ("run", "l"): (_as_int, 2),
    ("run", "n_min"): (_as_int, 1),
    ("run", "n_max"): (_as_int, 5),
    ("coupling", "alpha"): (_as_float, 0.0),
    ("coupling", "beta"): (_as_float, _REQUIRED),
    ("surface", "delta"): (_as_float, 0.08),
    ("surface", "deltas"): (_as_floats, tuple(np.geomspace(0.02, 0.12, 8).tolist())),
    ("numerics", "order"): (_as_int, DEFAULT_ORDER),
    ("output", "path"): (_as_text, None),
    ("output", "format"): (_as_text, "csv"),
    ("output", "emit_plot_script"): (_as_bool, False),
    ("surface", "family"): (_as_text, None),
    ("surface", "center"): (_as_vec, None),
    ("surface", "normal"): (_as_vec, None),
    ("surface", "radius"): (_as_float, None),
    ("surface", "polar_angle"): (_as_float, None),
    ("surface", "direction1"): (_as_vec, None),
    ("surface", "direction2"): (_as_vec, None),
    ("surface", "length1"): (_as_float, None),
    ("surface", "length2"): (_as_float, None),
    ("surface", "anchor"): (_as_vec, None),
}

#: family -> (factory, {config key: factory keyword}).  A [surface] key that
#: no family names here (anchor, delta, deltas) applies to every family.
_FAMILIES = {
    "disk": (disk, {k: k for k in ("center", "normal", "radius")}),
    "rectangle": (rectangle_patch, {k: k for k in ("center", "direction1", "direction2",
                                                   "length1", "length2")}),
    "spherical_cap": (spherical_cap, {"center": "sphere_center", "radius": "radius",
                                      "polar_angle": "polar_angle"}),
}


def _parse_lines(text: str) -> dict:
    """{(section, key): (value, line number)} in file order, checked fail-closed."""
    sections = {name for name, _ in _KEYS}
    lines, section = {}, None
    for num, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in sections:
                raise ConfigError(f"line {num}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {num}: expected 'key = value', got {raw!r}")
        if section is None:
            raise ConfigError(f"line {num}: key outside of any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        if (section, key) not in _KEYS:
            raise ConfigError(f"line {num}: unknown key {key!r} in [{section}]")
        if (section, key) in lines:
            raise ConfigError(f"line {num}: duplicate key {key!r}")
        lines[section, key] = (value, num)
    return lines


def _build_surface(given: dict) -> Surface | None:
    """The surface of the parsed values; None without a family."""
    if "family" not in given:
        return None
    family = given["family"]
    factory, keywords = _FAMILIES[family]
    try:
        s = factory(**{kw: given[key] for key, kw in keywords.items()})
        if "anchor" in given:
            s = with_anchor(s, given["anchor"])
        return s
    except KeyError as exc:
        raise ConfigError(
            f"surface family {family!r} is missing the {exc.args[0]!r} key") from None
    except (SurfaceValidationError, ValueError) as exc:
        raise ConfigError(f"invalid surface: {exc}") from None


def parse_config(text: str) -> RunConfig:
    """The config of ``text``; run() checks the ranges, after any override."""
    lines = _parse_lines(text)
    for (section, key), (_, default) in _KEYS.items():
        if default is _REQUIRED and (section, key) not in lines:
            raise ConfigError(f"missing required key: [{section}] {key}")

    mode, num = lines["run", "mode"]
    if mode not in _RUNNERS:
        raise ConfigError(f"line {num}: mode must be one of {', '.join(_RUNNERS)}")
    surface_lines = {key: vn for (section, key), vn in lines.items() if section == "surface"}
    if "family" in surface_lines:
        family, num = surface_lines["family"]
        if family not in _FAMILIES:
            raise ConfigError(f"line {num}: unknown surface family {family!r}")
        keywords = _FAMILIES[family][1]
        for key, (_, num) in surface_lines.items():
            if key not in keywords and any(key in kws for _, kws in _FAMILIES.values()):
                raise ConfigError(
                    f"line {num}: key {key!r} does not apply to family {family!r}")

    given = {key: _KEYS[section, key][0](value, key, num)
             for (section, key), (value, num) in lines.items()}
    values = {key: given.get(key, default) for (_, key), (_, default) in _KEYS.items()}
    if values["beta"] == 0.0:
        raise ConfigError(
            f"line {lines['coupling', 'beta'][1]}: beta = 0 switches the impurity off; "
            "the coupling must be nonzero")
    surface = _build_surface(given)
    deltas = values["deltas"]
    if any(b <= a for a, b in zip(deltas, deltas[1:])):
        raise ConfigError(
            f"line {lines['surface', 'deltas'][1]}: deltas must be strictly increasing")

    try:
        params = SpectralParams(alpha=values["alpha"], beta=values["beta"])
    except ValueError as exc:
        raise ConfigError(f"line {lines['coupling', 'alpha'][1]}: {exc}") from None
    names = {f.name for f in fields(RunConfig)}
    return RunConfig(params=params,
                     surface=surface,
                     surface_lines={key: text for key, (text, _) in surface_lines.items()},
                     **{key: v for key, v in values.items() if key in names})


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
    """Metadata, header and rows; each row is written as it is taken from ``rows``."""
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
    # the whole text first: a value JSON cannot hold raises before the file opens
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


_WRITERS = {"csv": _write_csv, "json": _write_json}


def _emit(config, header, rows, extra):
    _WRITERS[config.format](config.path, header, rows, _metadata(config, extra))


def _plot_script(config: RunConfig) -> str:
    csv = config.path.replace("'", "''")  # gnuplot's escape inside single quotes
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
    # one n at a time, so that the CSV writer streams the rows; _check has
    # already refused every n of the range that would fail
    rows = ((i.n, i.value, i.kind, -1 if i.window is None else i.window)
            for n in range(config.n_min, config.n_max + 1)
            for i in embedded_eigenvalues(config.params, (n,)))
    _emit(config, ("n", "eps_n", "class", "window"),
          rows, {"xi_alpha": config.params.xi_alpha})
    return 0


def _run_pole(config: RunConfig) -> int:
    state = pole_state(config.surface, config.delta, config.l, config.params,
                       order=config.order)
    res = find_pole(state, seed=config.seed)
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
                        order=config.order)
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
    brute = float(np.sum(macdonald_k0(n_arr * 0.5).real * np.cos(n_arr * 1.0)))
    checks.append(("prudnikov_cosine_sum", abs(k0_cosine_sum(0.5, 1.0) - brute) < 1e-8))

    # the program's kernel against the mode series at a wide pair and a close
    # one (rho = 1e-2), on both sheets of J_1 and J_2, relative where |G| > 1
    worst, rho = 0.0, float(np.hypot(*(x - xp)[:2]))
    for z, ctx in ((2.5 + 0.3j, first_sheet(1)), (2.5 - 0.3j, second_sheet(1)),
                   (6.0 + 0.2j, first_sheet(2)), (6.0 - 0.2j, second_sheet(2))):
        ewald = EwaldGreen(z, EwaldSplit.for_separation(rho, ctx), ctx)
        for pair in (xp, x + np.array([1e-2, 0.0, 0.0])):
            want = layer_green_modal(z, x, pair, ctx)
            worst = max(worst, abs(ewald(x, pair) - want) / max(1.0, abs(want)))
    checks.append(("ewald_vs_modal", worst < 1e-12))

    eps = 1e-8
    up = layer_green_modal(2.5 + 1j * eps, x, xp, first_sheet())
    dn = layer_green_modal(2.5 - 1j * eps, x, xp, second_sheet(1))
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


def _refuse_unwritable(path: str):
    """Raise the OSError that writing ``path`` would raise; opens nothing."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), path)


def _check(config: RunConfig):
    """Range checks of the values, checks that depend on the mode and the
    check that the outputs are writable, made after every command-line
    override; ``config.mode`` is the mode that runs."""
    if not 0.0 < config.delta <= 1.0:
        raise ConfigError(f"delta must lie in (0, 1], got {config.delta}")
    if not all(0.0 < d <= 1.0 for d in config.deltas):
        raise ConfigError(f"every delta in deltas must lie in (0, 1], got {config.deltas}")
    if config.l < 1:
        raise ConfigError(f"mode index l must be >= 1, got {config.l}")
    if config.n_min < 1 or config.n_max < config.n_min:
        raise ConfigError(f"need 1 <= n_min <= n_max, got {config.n_min}..{config.n_max}")
    if config.order < 2:
        raise ConfigError("quadrature order must be >= 2")
    if config.format not in _WRITERS:
        raise ConfigError(f"output format must be csv or json, got {config.format!r}")
    if config.emit_plot_script and config.format != "csv":
        raise ConfigError("emit_plot_script needs format = csv: the gnuplot script "
                          "reads the output as CSV")
    if config.mode in ("pole", "sweep"):
        if config.surface is None:
            raise ConfigError(f"mode {config.mode} needs a [surface] section with a family")
        eps = config.params.eigenvalue(config.l)
        try:
            window_index(eps)
        except ValueError as exc:
            raise ConfigError(f"l = {config.l}: eps_l = {eps}: {exc}") from None
    if config.mode == "eigenvalues":
        rows = config.n_max - config.n_min + 1
        if rows > _MAX_TABLE_ENTRIES:
            raise ConfigError(f"n_min..n_max = {config.n_min}..{config.n_max} asks for "
                              f"{rows} rows; the limit is {_MAX_TABLE_ENTRIES}")
        for n in range(config.n_min, config.n_max + 1):
            eps = config.params.eigenvalue(n)
            try:
                if eps >= 1.0:  # a discrete eps_n has no window to collide with
                    window_index(eps)
            except ValueError as exc:
                raise ConfigError(f"n = {n}: eps_n = {eps}: {exc}") from None
    if config.mode == "sweep" and len(config.deltas) < MIN_SWEEP_POINTS:
        raise ConfigError(f"a sweep fits power laws to at least {MIN_SWEEP_POINTS} "
                          f"deltas, got {len(config.deltas)}")
    if config.seed is not None and config.mode != "pole":
        raise ConfigError(f"--seed-re and --seed-im apply to pole mode only, "
                          f"not {config.mode}")
    if not config.path:
        raise ConfigError("[output] path is empty")
    _refuse_unwritable(config.path)
    if config.mode == "sweep" and config.emit_plot_script:
        _refuse_unwritable(config.path + ".gp")


_RUNNERS = {"eigenvalues": _run_eigenvalues, "pole": _run_pole, "sweep": _run_sweep,
            "validate": _run_validate}


def run(config: RunConfig) -> int:
    if config.path is None:
        config.path = f"layres_{config.mode}.{config.format}"
    try:
        _check(config)
        return _RUNNERS[config.mode](config)
    except (ConfigError, OSError) as exc:  # OSError: the output is not writable
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, ValueError) as exc:
        # ConvergenceError and the solver guards are ArithmeticErrors;
        # threshold collisions, invalid scaled surfaces and numerical range
        # limits (e.g. the Ewald spectral radius) are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _keep_freed_memory() -> None:
    """Let glibc's malloc keep freed memory of this process for reuse.

    With glibc's defaults a numpy temporary above 128 KiB is mapped and
    unmapped on every use, and a freed heap top is returned to the system,
    until glibc's dynamic thresholds have adapted.  A one-shot process never
    gets there, so every Duffy row, eta_l and Ewald table build page-faults
    its temporaries afresh.  With this policy allocations up to 32 MiB come
    from the heap, and the heap keeps up to 128 MiB of free top.  Where libc
    has no ``mallopt`` (macOS, Windows, other libcs) this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        # M_MMAP_THRESHOLD (-3) at glibc's largest value on 64-bit systems,
        # which also turns off its dynamic adjustment; M_TRIM_THRESHOLD (-1)
        mallopt(-3, 32 << 20)
        mallopt(-1, 128 << 20)
    # OSError: no libc handle; TypeError: CDLL(None) on Windows;
    # AttributeError: no mallopt
    except (OSError, AttributeError, TypeError):
        pass


def main(argv=None) -> int:
    _keep_freed_memory()
    parser = argparse.ArgumentParser(prog="layres", description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=_RUNNERS)
    parser.add_argument("--config", required=True, help="path to the config file")
    parser.add_argument("--output", help="override [output] path")
    parser.add_argument("--threads", type=int, help="cap BLAS thread count")
    parser.add_argument("--seed-re", type=float, help="pole-mode root seed, real part")
    parser.add_argument("--seed-im", type=float, help="pole-mode root seed, imaginary part")
    args = parser.parse_args(argv)
    try:
        with open(args.config, encoding="utf-8") as fh:
            config = parse_config(fh.read())
        config.mode = args.mode
        if args.output is not None:
            config.path = args.output
        if args.threads is not None and args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        for flag, value in (("--seed-re", args.seed_re), ("--seed-im", args.seed_im)):
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{flag} must be a finite number, got {value}")
        if args.seed_re is not None or args.seed_im is not None:
            seed_re = args.seed_re
            if seed_re is None:
                seed_re = config.params.eigenvalue(config.l)
            config.seed = complex(seed_re, args.seed_im or 0.0)
    # OSError: the config file is not readable; UnicodeDecodeError: it is not UTF-8
    except (ConfigError, OSError, UnicodeDecodeError) as exc:
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
