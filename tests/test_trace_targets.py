"""The benchmark tracer's contract with the program, and its scipy surface.

``perfbench/spans.py`` wraps public calls by module attribute from outside;
a renamed or removed name breaks a traced benchmark run.  These checks load
that file as it is and look every wrapped name up on its owner, and a pole
and a sweep run under its tracer must make a span of every wrapped name but
the few that no pole or sweep calls.  An import
a module does not use is allowed only for such a wrapped name.  The program
calls no scipy function; the list of them stays here, empty, so that a
scipy call added shows as an edit to it.  So does a knob: every parameter
with a default, every dataclass field given a value, every config key and
every command-line option is listed here.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from layres import bs_operator, cli, geometry, greens, resonance, specfun

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
SOURCES = sorted((ROOT / "src" / "layres").glob("*.py"))


MODULES = dict(cli=cli, resonance=resonance, bs_operator=bs_operator, geometry=geometry,
               greens=greens, specfun=specfun)


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


TARGETS = [(name, owner, attr) for name, owner, attr, _ in _spans().targets(**MODULES)]


@pytest.mark.parametrize("name, owner, attr", TARGETS,
                         ids=[f"{owner.__name__.removeprefix('layres.')}.{attr}"
                              for _, owner, attr in TARGETS])
def test_traced_name_is_callable_on_its_owner(name, owner, attr):
    assert callable(getattr(owner, attr, None)), f"{name} is traced as {owner.__name__}.{attr}"


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (a.asname or a.name for a in node.names)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_import_is_used_exported_or_traced(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    name = "layres" if path.stem == "__init__" else f"layres.{path.stem}"
    module = importlib.import_module(name)
    traced = {attr for _, owner, attr in TARGETS if owner is module}
    unused = [n for n in _imported_names(tree)
              if n not in used and n not in getattr(module, "__all__", ()) and n not in traced]
    assert not unused, f"{path.name} imports {unused} without using them"


#: every scipy function ``src/layres`` calls, by module
SCIPY_CALLS = {}


def _scipy_calls(tree):
    """Names of the scipy functions a module imports directly or calls on a scipy module."""
    modules, calls = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name.startswith("scipy")}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy"):
            owner = importlib.import_module(node.module)
            for a in node.names:
                if inspect.ismodule(getattr(owner, a.name)):
                    modules.add(a.asname or a.name)
                else:
                    calls.add(a.name)
    calls |= {node.attr for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules}
    return calls


def test_scipy_surface_is_pinned():
    found = {path.stem: _scipy_calls(ast.parse(path.read_text(encoding="utf-8")))
             for path in SOURCES}
    assert {stem: calls for stem, calls in found.items() if calls} == SCIPY_CALLS


#: module.function or module.class -> its parameters with a default, or its
#: dataclass fields given a value (18 in all)
SETTABLE = {
    "bs_operator._node_group": ("dist",),
    "bs_operator.singular_part_matrix": ("duffy_order", "group"),
    "bs_operator.mode_cutoff": ("n_cut",),
    "bs_operator.SystemState": ("n_cut",),
    "bs_operator.eta_l": ("diagnostics",),
    "cli.RunConfig": ("seed",),
    "cli.main": ("argv",),
    "geometry.Surface": ("periodic2", "r_min"),
    "greens.layer_green_modal": ("n_max",),
    "resonance.pole_state": ("order",),
    "resonance.find_pole": ("seed",),
    "resonance.find_determinant_root": ("seed",),
    "resonance.sweep_delta": ("order",),
    "specfun.SheetContext": ("second",),
    "specfun.first_sheet": ("k",),
    "specfun.SpectralParams": ("xi_alpha",),
}


def _is_dataclass(node):
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in node.decorator_list)


def _settable(tree, prefix=""):
    """{qualified name: settable names} of every function and class under ``tree``."""
    found = {}
    for node in ast.iter_child_nodes(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.update(_settable(node, prefix))
            continue
        if isinstance(node, ast.ClassDef):
            names = [st.target.id for st in node.body if _is_dataclass(node)
                     and isinstance(st, ast.AnnAssign) and st.value is not None]
        else:
            args = node.args
            positional = args.posonlyargs + args.args
            names = [a.arg for a in positional[len(positional) - len(args.defaults):]]
            names += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        if names:
            found[prefix + node.name] = tuple(names)
        found.update(_settable(node, f"{prefix}{node.name}."))
    return found


def test_settable_surface_is_pinned():
    found = {f"{path.stem}.{name}": names for path in SOURCES
             for name, names in _settable(ast.parse(path.read_text(encoding="utf-8"))).items()}
    assert found == SETTABLE


#: the config keys, ``section.key`` in ``cli._KEYS`` order (22 in all)
CONFIG_KEYS = (
    "run.mode", "run.l", "run.n_min", "run.n_max", "coupling.alpha", "coupling.beta",
    "surface.delta", "surface.deltas", "numerics.order", "output.path", "output.format",
    "output.emit_plot_script", "surface.family", "surface.center", "surface.normal",
    "surface.radius", "surface.polar_angle", "surface.direction1", "surface.direction2",
    "surface.length1", "surface.length2", "surface.anchor",
)

#: the arguments ``cli.main`` declares, in order
OPTIONS = ("mode", "--config", "--output", "--threads", "--seed-re", "--seed-im")


def test_config_keys_are_pinned():
    assert tuple(f"{section}.{key}" for section, key in cli._KEYS) == CONFIG_KEYS


def test_command_line_options_are_pinned():
    tree = ast.parse(inspect.getsource(cli.main))
    found = tuple(arg.value for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "add_argument"
                  for arg in node.args)
    assert found == OPTIONS


def test_numerics_defaults_are_the_library_constants():
    # each default has one definition; the config key and the signatures
    # hold that object itself, not a literal of the same value
    assert cli._KEYS["numerics", "order"][1] is resonance.DEFAULT_ORDER
    for function in (resonance.pole_state, resonance.sweep_delta):
        order = inspect.signature(function).parameters["order"]
        assert order.default is resonance.DEFAULT_ORDER, function.__name__


#: traced calls that only ``validate`` mode or nothing at all makes
UNTRACED_BY_POLE_AND_SWEEP = {"greens.EwaldGreen.regularized_diag",
                              "greens.calibrate_tail_constant",
                              "resonance.fit_power_law", "resonance.im_mu_closed_form"}


def test_pole_and_sweep_reach_every_other_traced_name(tmp_path, monkeypatch):
    # a traced call that the program stops making zeroes its per-layer
    # metrics without any error; every name a pole or sweep should reach is
    # checked here by running both under the tracer itself
    for _, owner, attr in TARGETS:  # monkeypatch restores each one afterwards
        monkeypatch.setattr(owner, attr, getattr(owner, attr))
    tracer = _spans().Tracer()
    tracer.install(MODULES)
    surface = "[surface]\nfamily = disk\ncenter = 1 0 1\nnormal = 0 0 1\nradius = 0.5\n"
    for mode, delta_line in [("pole", "delta = 0.08"),
                             ("sweep", "deltas = 0.02 0.035 0.06 0.1")]:
        path = tmp_path / f"{mode}.cfg"
        path.write_text(f"[run]\nmode = {mode}\nl = 2\n[coupling]\nbeta = 0.4\n{surface}"
                        f"{delta_line}\n[numerics]\norder = 4\n", encoding="utf-8")
        assert cli.main([mode, "--config", str(path),
                         "--output", str(tmp_path / f"{mode}.csv")]) == 0
    traced = {name for name, _, _ in TARGETS}
    assert {span[0] for span in tracer.spans} == traced - UNTRACED_BY_POLE_AND_SWEEP
