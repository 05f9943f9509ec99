"""The benchmark tracer's contract with the program, and its scipy surface.

``perfbench/spans.py`` wraps public calls by module attribute from outside;
a renamed or removed name breaks a traced benchmark run.  These checks load
that file as it is and look every wrapped name up on its owner.  An import
a module does not use is allowed only for such a wrapped name.  The program
calls no scipy function; the list of them stays here, empty, so that a
scipy call added shows as an edit to it.
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


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.targets(cli=cli, resonance=resonance, bs_operator=bs_operator,
                         geometry=geometry, greens=greens, specfun=specfun)


TARGETS = [(name, owner, attr) for name, owner, attr, _ in _targets()]


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
