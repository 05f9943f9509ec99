"""The delta-copy of a surface as a checked surface of its own, for tests.

The program makes no such surface: a copy's rule is the surface's rule
scaled (``QuadratureRule.scaled``), and of the copy itself only its r_min is
searched (``geometry.scale_surface``).  A test that needs the copy's own
geometry, its full surface check or its singular matrices, builds it here
from the parametrization x_delta(q) = delta x(q) + (1 - delta) x0.
"""

from layres.geometry import Surface


def copy_surface(surface: Surface, delta: float) -> Surface:
    """The copy of ``surface`` at ``delta`` about its anchor x0, checked as any surface is."""
    x0 = surface.x0

    def param_map(q1, q2):
        return delta * surface.param_map(q1, q2) + (1.0 - delta) * x0

    def jacobian(q1, q2):
        return delta**2 * surface.jacobian(q1, q2)

    return Surface(name=f"{surface.name}@delta={delta:g}", param_map=param_map,
                   jacobian=jacobian, domain=surface.domain, x0=x0, periodic2=surface.periodic2)
