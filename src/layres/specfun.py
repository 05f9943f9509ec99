"""Scalar spectral functions of the wire and their second-sheet continuations.

The dispersion bookkeeping lives here: the longitudinal decay rates
``kappa_n``, the wire Birman-Schwinger functions ``gamma_n`` and the kernel
building block ``z0_kernel``.  All branch logic is centralised in
:func:`im_positive_sqrt`; the second sheet is realised by explicit additive
corrections for the open modes ``n <= k`` rather than by winding a generic
logarithm, so each branch can be tested in isolation.

Sign conventions
----------------
sqrt(z - n^2) is always the root with positive imaginary part.  Real z is
interpreted as the limit from above on the first sheet and from below on the
second sheet (see :func:`nudge_off_axis`).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special as _sp

__all__ = [
    "EULER_GAMMA",
    "PSI_ONE",
    "Sheet",
    "SheetContext",
    "SpectralParams",
    "BranchPointError",
    "im_positive_sqrt",
    "nudge_off_axis",
    "macdonald_k0",
    "bessel_i0",
    "kappa_n",
    "gamma_n",
    "gamma_from_gap",
    "z0_kernel",
]

EULER_GAMMA = 0.5772156649015329
#: psi(1) = -gamma; the paper's 2D point-interaction constant.
PSI_ONE = -EULER_GAMMA

#: K0 underflows double precision far before this; returning exact 0 is policy.
_K0_UNDERFLOW_RE = 700.0

#: imaginary nudge used to select the side of the continuous spectrum for
#: exactly-real spectral parameters; far below any physical scale.
_AXIS_NUDGE = 1e-250


class BranchPointError(ValueError):
    """Spectral parameter sits exactly on a branch point z = n^2."""


class Sheet(enum.Enum):
    FIRST = "first"
    SECOND = "second"


@dataclass(frozen=True)
class SheetContext:
    """Which sheet a z-dependent quantity lives on.

    The second sheet is always the continuation through the spectral window
    J_k = (k^2, (k+1)^2); modes n <= k carry the continuation corrections.
    """

    k: int
    sheet: Sheet = Sheet.FIRST

    def __post_init__(self) -> None:
        if not isinstance(self.k, int) or self.k < 1:
            raise ValueError(f"window index k must be a positive integer, got {self.k!r}")

    @property
    def second(self) -> bool:
        return self.sheet is Sheet.SECOND

    @property
    def window(self) -> tuple[float, float]:
        return (float(self.k**2), float((self.k + 1) ** 2))


def first_sheet(k: int = 1) -> SheetContext:
    return SheetContext(k=k, sheet=Sheet.FIRST)


def second_sheet(k: int) -> SheetContext:
    return SheetContext(k=k, sheet=Sheet.SECOND)


@dataclass(frozen=True)
class SpectralParams:
    """Coupling constants of the wire (alpha) and the surface (beta).

    xi_alpha is the eigenvalue of the associated 2D point interaction,
    xi_alpha = -4 exp(2(-2 pi alpha + psi(1))); it is negative for every
    alpha and shifts every transverse threshold n^2 to an eigenvalue
    eps_n = xi_alpha + n^2.
    """

    alpha: float
    beta: float
    xi_alpha: float = field(init=False)

    def __post_init__(self) -> None:
        if self.beta == 0.0:
            raise ValueError("surface coupling beta must be nonzero")
        xi = -4.0 * math.exp(2.0 * (-2.0 * math.pi * self.alpha + PSI_ONE))
        object.__setattr__(self, "xi_alpha", xi)

    def eigenvalue(self, n: int) -> float:
        """eps_n = xi_alpha + n^2."""
        return self.xi_alpha + n * n


def im_positive_sqrt(w):
    """Square root with Im sqrt >= 0; real w > 0 maps to the positive root.

    This is the branch the first-sheet resolvent uses for sqrt(z - n^2):
    continuous everywhere except across the positive real axis, where the
    +i0 side is taken.
    """
    s = np.sqrt(np.asarray(w, dtype=complex))
    s = np.where(s.imag < 0.0, -s, s)
    if s.ndim == 0:
        return complex(s)
    return s


def nudge_off_axis(z: complex, ctx: SheetContext) -> complex:
    """Push an exactly-real z infinitesimally off the axis.

    First sheet means the +i0 limit, second sheet the -i0 limit; the offset
    only selects branches and is far below any representable physical effect.
    """
    z = complex(z)
    if z.imag == 0.0:
        z = complex(z.real, -_AXIS_NUDGE if ctx.second else _AXIS_NUDGE)
    return z


def macdonald_k0(w):
    """Macdonald function K0 for complex arguments off the cut.

    Returns exact 0 once Re w > 700 (the true value is below double
    precision range).  w = 0 is a logarithmic singularity and rejected.
    """
    w_arr = np.asarray(w, dtype=complex)
    if np.any(w_arr == 0.0):
        raise ValueError("K0 has a logarithmic singularity at w = 0")
    out = np.where(w_arr.real > _K0_UNDERFLOW_RE, 0.0 + 0.0j, _sp.kv(0, w_arr))
    if out.ndim == 0:
        return complex(out)
    return out


def bessel_i0(w):
    """Modified Bessel function I0 (entire)."""
    out = _sp.iv(0, np.asarray(w, dtype=complex))
    if out.ndim == 0:
        return complex(out)
    return out


def kappa_n(z: complex, n, ctx: SheetContext | None = None):
    """Longitudinal decay rate kappa_n(z) = -i sqrt(z - n^2), Im sqrt > 0.

    Re kappa_n > 0 away from the mode's cut [n^2, oo); for real z < n^2 the
    value is the positive root sqrt(n^2 - z).  Real z >= n^2 is resolved by
    the sheet convention of ``ctx`` (+i0 on the first sheet, -i0 on the
    second); ``ctx=None`` means first sheet.  ``n`` may be an array of mode
    indices; the result then has its shape.
    """
    n = np.asarray(n)
    if np.any(n < 1):
        raise ValueError("mode index n must be >= 1")
    on_branch = n * n == complex(z)
    if np.any(on_branch):
        m = int(n[on_branch][0])
        raise BranchPointError(f"z = n^2 = {m * m} is a branch point")
    z = nudge_off_axis(z, ctx or first_sheet())
    return -1j * im_positive_sqrt(z - n * n)


def gamma_n(z: complex, n: int, ctx: SheetContext, params: SpectralParams) -> complex:
    """Wire Birman-Schwinger function Gamma_n(z) on either sheet.

    First sheet: (1/2pi)(2 pi alpha - psi(1) + ln(sqrt(z - n^2)/(2i))).
    Second sheet adds -i/2 for the open modes n <= ctx.k and is identical to
    the first sheet otherwise.  The only zero on the first sheet is the
    eigenvalue eps_n = xi_alpha + n^2.
    """
    if complex(z) == complex(n * n):
        raise BranchPointError(f"z = n^2 = {n * n} is a branch point")
    z = nudge_off_axis(z, ctx)
    return gamma_from_gap(z - n * n, n, ctx, params)


def gamma_from_gap(w: complex, n: int, ctx: SheetContext, params: SpectralParams) -> complex:
    """Gamma_n evaluated from the gap w = z - n^2 supplied directly.

    Near an eigenvalue the gap is tiny (down to ~1e-11 for strong repulsive
    alpha) and forming z = n^2 + w in double precision would wipe it out;
    callers that know the gap exactly (eigenvalue checks, Taylor arguments)
    use this entry point.
    """
    if n < 1:
        raise ValueError("mode index n must be >= 1")
    w = complex(w)
    if w == 0.0:
        raise BranchPointError(f"z = n^2 = {n * n} is a branch point")
    s = im_positive_sqrt(w)
    val = (2.0 * math.pi * params.alpha - PSI_ONE + np.log(s / 2.0j)) / (2.0 * math.pi)
    if ctx.second and n <= ctx.k:
        val -= 0.5j
    return complex(val)


def z0_kernel(z: complex, n, rho, ctx: SheetContext):
    """Kernel building block Z0: K0(kappa_n rho), plus i pi I0(-kappa_n rho)
    for open modes on the second sheet.

    ``n`` may be an array of mode indices; the result has the shape of
    ``rho`` followed by the shape of ``n``.  This is the single place where
    sheet logic enters kernel evaluation.
    """
    rho_arr = np.asarray(rho, dtype=float)
    if np.any(rho_arr <= 0.0):
        raise ValueError("z0_kernel requires rho > 0")
    n = np.asarray(n)
    arg = np.multiply.outer(rho_arr, kappa_n(z, n, ctx))
    val = np.asarray(macdonald_k0(arg))
    if ctx.second:
        open_ = np.broadcast_to(n <= ctx.k, val.shape)
        val[open_] += 1j * math.pi * bessel_i0(-arg[open_])
    return complex(val) if val.ndim == 0 else val
