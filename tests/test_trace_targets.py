"""The benchmark tracer's contract with the program.

``perfbench/spans.py`` wraps public calls by module attribute from outside;
a renamed or removed name breaks a traced benchmark run.  These checks load
that file as it is and look every wrapped name up on its owner.
"""

import importlib.util
from pathlib import Path

import pytest

from layres import bs_operator, cli, geometry, greens, resonance, specfun

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
