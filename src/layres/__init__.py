"""Resonance poles of a straight quantum layer with a delta wire and a
small surface impurity.

Subpackages
-----------
specfun     scalar spectral functions and branch bookkeeping
geometry    parametrized impurity surfaces and quadrature rules
greens      layer Green's kernel on both sheets
bs_operator Nystrom discretization of the surface operators
resonance   pole location, delta sweeps and closed-form asymptotics
cli         config-driven command line front end
"""

__version__ = "0.1.0"

from .specfun import SpectralParams, SheetContext, first_sheet, second_sheet

__all__ = [
    "SpectralParams",
    "SheetContext",
    "first_sheet",
    "second_sheet",
    "__version__",
]
