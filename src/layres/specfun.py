"""Scalar spectral functions of the wire and their second-sheet continuations.

The dispersion bookkeeping lives here: the longitudinal decay rates
``kappa_n``, the wire Birman-Schwinger functions ``gamma_n`` and the kernel
building block ``z0_kernel``.  All branch logic is centralised in
:func:`im_positive_sqrt`; the second sheet is realised by explicit additive
corrections for the open modes ``n <= k`` rather than by winding a generic
logarithm, so each branch can be tested in isolation.  There are three, one
per function continued through J_k: ``gamma_n`` gains -i/2 (its log),
``z0_kernel`` gains i pi I0(-kappa_n rho), and the Ewald kernel's spectral
coefficients (``greens.EwaldGreen``) take E1 across its cut,
E1(x e^(-2 pi i)) = E1(x) + 2 pi i (DLMF 6.4).

Sign conventions
----------------
sqrt(z - n^2) is always the root with positive imaginary part.  Real z is
interpreted as the limit from above on the first sheet and from below on the
second sheet (see :func:`nudge_off_axis`).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.chebyshev import chebval

__all__ = [
    "EULER_GAMMA",
    "PSI_ONE",
    "SheetContext",
    "SpectralParams",
    "BranchPointError",
    "im_positive_sqrt",
    "nudge_off_axis",
    "macdonald_k0",
    "bessel_i0",
    "exp1",
    "erfcx",
    "erf",
    "kappa_n",
    "gamma_n",
    "gamma_from_gap",
    "z0_kernel",
]

EULER_GAMMA = 0.5772156649015329
#: psi(1) = -gamma; the paper's 2D point-interaction constant.
PSI_ONE = -EULER_GAMMA

#: Edge of the double range for values of size e^(+-w): K0 underflows far
#: before Re w = 700 and is returned as exact 0 past it (policy), and the
#: series of I0 and E1, which grow like e^|w| on them, refuse |w| > 700,
#: where the value comes within e^16 of overflow or passes it.
_EXP_RANGE = 700.0

#: largest |Im w| / |w| for which macdonald_k0 takes K0(w) from its Chebyshev series
_REAL_K0_RATIO = 1e-7

#: imaginary nudge used to select the side of the continuous spectrum for
#: exactly-real spectral parameters; far below any physical scale.
_AXIS_NUDGE = 1e-250


def _ascending_table():
    """Coefficients in q = w^2/4 of the ascending sums of I0 and K0, for |w| <= 2.

    Columns c_m = 1 / (m!)^2 and c_m psi(m+1), psi(m+1) = H_m - gamma, for
    the 13 terms m < 13.  Their sums i_0 and S_0 give K0 = S_0 - log(w/2) i_0
    (DLMF 10.31.2).  The first omitted term is below 3e-20.
    """
    terms = 13
    psi = np.concatenate([[0.0], np.cumsum(1.0 / np.arange(1, terms + 1))]) - EULER_GAMMA
    m = np.arange(terms)
    c = np.array([1.0 / math.factorial(k) ** 2 for k in m])
    return np.stack([c, c * psi[m]], axis=1)


_ASCENDING = _ascending_table()

#: nodes s^2 and weights h e^(-s^2) (doubled off s = 0) of the trapezoidal rule of _k0_laplace
_LAPLACE_S2 = (0.2 * np.arange(31)) ** 2
_LAPLACE_WEIGHTS = np.where(_LAPLACE_S2 == 0.0, 0.2, 0.4) * np.exp(-_LAPLACE_S2)


def _laplace_sum(w):
    """sum_j W_j (1 + s_j^2/2w)^(-1/2): the trapezoidal sum of :func:`_k0_laplace`,
    which is sqrt(2w) e^w K0(w)."""
    return np.sum(_LAPLACE_WEIGHTS / np.sqrt(1.0 + _LAPLACE_S2 / (2.0 * w[..., None])), axis=-1)


@functools.cache
def _laguerre_rule():
    """Nodes and weights of the 96-point Gauss-Laguerre rule (Golub-Welsch), built at first use.

    exp1 applies it off its series region.  The n-point value is the n-th
    convergent of the continued fraction of E1, which converges slowest on
    the edge |z| + Re z = 2 of that region, where n = 96 points suffice.
    """
    n = 96
    off = np.arange(1.0, n)
    nodes, vectors = np.linalg.eigh(np.diag(2.0 * np.arange(n) + 1.0)
                                    + np.diag(off, 1) + np.diag(off, -1))
    return nodes, vectors[0] ** 2


def _weideman_coefficients(n: int):
    """L and the n polynomial coefficients (lowest degree first) of Weideman's erfcx.

    The coefficients are the real parts of a discrete Fourier transform of
    2n samples, summed directly (one small product; numpy.fft costs more to
    import than this).
    """
    m = 2 * n
    big_l = math.sqrt(n / math.sqrt(2.0))
    t = big_l * np.tan(0.5 * math.pi * np.arange(-m + 1, m) / m)
    f = np.roll(np.concatenate([[0.0], np.exp(-t * t) * (big_l * big_l + t * t)]), m)
    phase = np.outer(np.arange(1, n + 1), np.arange(2 * m)) % (2 * m)  # exact, in [0, 2m)
    return big_l, np.cos(math.pi / m * phase) @ f / (2 * m)


_WEIDEMAN_L, _WEIDEMAN_COEFFS = _weideman_coefficients(40)


def _k0_chebyshev_table():
    """Chebyshev coefficients of sqrt(x) e^x K0(x) on the pieces [lo, hi] of x >= 2.

    Each piece is in t mapping 1/x linearly onto [-1, 1] and keeps as many
    coefficients as leave the first omitted one below 2e-18.  They come from
    :func:`_laplace_sum` at the 40 Chebyshev points theta_j = pi (2j+1)/80,
    by the discrete orthogonality of T_k there: each cos(k theta_j) is taken
    at its exact phase and each coefficient summed by math.fsum, which keeps
    them within 2e-16 of their 40-digit values.
    """
    nodes = 40
    odd = 2 * np.arange(nodes) + 1
    table = {}
    for lo, hi, terms in ((2.0, 8.0, 18), (8.0, math.inf, 15)):
        mid, half = 0.5 * (1.0 / lo + 1.0 / hi), 0.5 * (1.0 / lo - 1.0 / hi)
        x = 1.0 / (mid + half * np.cos(math.pi / (2 * nodes) * odd))
        f = _laplace_sum(x) * (math.sqrt(0.5) / nodes)
        phase = np.outer(np.arange(terms), odd) % (4 * nodes)  # exact, in [0, 4 nodes)
        coeffs = np.array([math.fsum(row) for row in np.cos(math.pi / (2 * nodes) * phase) * f])
        coeffs[1:] *= 2.0
        table[lo, hi] = coeffs
    return table


_K0_CHEB = _k0_chebyshev_table()


class BranchPointError(ValueError):
    """Spectral parameter sits exactly on a branch point z = n^2."""


@dataclass(frozen=True)
class SheetContext:
    """Which sheet a z-dependent quantity lives on: the window index k and a flag.

    ``second`` selects the continuation through the spectral window
    J_k = (k^2, (k+1)^2), whose open modes n <= k carry the continuation
    corrections; without it the quantity is on the first sheet, where k
    still sizes what depends on the window (:attr:`window`).
    """

    k: int
    second: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.k, int) or self.k < 1:
            raise ValueError(f"window index k must be a positive integer, got {self.k!r}")

    @property
    def window(self) -> tuple[float, float]:
        return (float(self.k**2), float((self.k + 1) ** 2))


def first_sheet(k: int = 1) -> SheetContext:
    return SheetContext(k)


def second_sheet(k: int) -> SheetContext:
    return SheetContext(k, second=True)


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
        for name in ("alpha", "beta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"coupling {name} must be finite, got {getattr(self, name)}")
        if self.beta == 0.0:
            raise ValueError("surface coupling beta must be nonzero")
        try:
            xi = -4.0 * math.exp(2.0 * (-2.0 * math.pi * self.alpha + PSI_ONE))
        except OverflowError:
            xi = -math.inf
        if not math.isfinite(xi):
            raise ValueError(f"alpha = {self.alpha} makes xi_alpha = "
                             f"-4 exp(2(-2 pi alpha + psi(1))) overflow")
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


def _series_terms(r: float, tol: float) -> int:
    """Smallest n with r^n/n! <= tol max_j r^j/j!: where an exponential-type series may stop."""
    n, term, top = 0, 1.0, 1.0
    while term > tol * top or n < r:
        n += 1
        term *= r / n
        top = max(top, term)
    return n


def _series_radius(name: str, x) -> float:
    """max |x| of the arguments of a series that grows like e^|x|, each |x| <= 700.

    A larger one is refused before any term count: its value is within e^16
    of overflow or past it, and the count would grow with |x|.
    """
    size = np.abs(x)
    r = float(np.max(size))
    if r > _EXP_RANGE:
        big = complex(x[np.argmax(size)])
        raise ValueError(f"{name}({big:g}) is out of range: on its series |{name}| grows "
                         f"like e^|x|, which past |x| = {_EXP_RANGE:g} nears or leaves "
                         "the double range")
    return r


def _horner(x, coeffs):
    """sum_m coeffs[m] x^m by Horner's rule, in place; further axes of
    ``coeffs`` lead the shape of the result."""
    coeffs = coeffs.reshape(coeffs.shape + (1,) * np.ndim(x))
    acc = coeffs[-1] * np.ones_like(x)
    for c in coeffs[-2::-1]:
        acc *= x
        acc += c
    return acc


def _i0_series(w, r: float):
    """Ascending series sum_m (w^2/4)^m / (m!)^2 of I0, for |w| <= 2r.

    Summed forward until the terms fall below 1e-18 of the largest: a term
    that small no longer changes a sum without cancellation (|w| - |Re w| <= 2),
    so no value depends on how many terms a larger |w| in the array asked for.
    """
    q = 0.25 * w * w
    term = np.ones_like(q)
    total = term.copy()
    for m in range(1, _series_terms(r, 1e-9)):
        term *= q
        term *= 1.0 / (m * m)
        total += term
    return total


def _k0_chebyshev(w):
    """K0 of a 1-d array w with Re w > 2, from the Chebyshev series of _K0_CHEB.

    Each piece is chosen by Re w and its series of sqrt(x) e^x K0(x)
    summed at x = w itself, so t = (1/w - mid) / half is complex; for
    |Im w| <= _REAL_K0_RATIO |w| it stays within 3e-7 of [-1, 1],
    where the series converges as on the real line.
    """
    out = np.empty_like(w)
    for (lo, hi), table in _K0_CHEB.items():
        piece = (w.real > lo) & (w.real <= hi)
        if np.any(piece):
            wp = w[piece]
            mid, half = 0.5 * (1.0 / lo + 1.0 / hi), 0.5 * (1.0 / lo - 1.0 / hi)
            out[piece] = chebval((1.0 / wp - mid) / half, table) * (np.exp(-wp) / np.sqrt(wp))
    return out


def _k0_laplace(w):
    """K0(w) off the negative real axis where |w| + Re w >= 2.

    K0(w) = e^-w (2w)^(-1/2) int e^(-s^2) (1 + s^2/2w)^(-1/2) ds over the
    real line (DLMF 10.32.8 with t = s^2), by the trapezoidal rule on
    s = 0, 0.2, ..., 6 (:func:`_laplace_sum`).  The integrand is analytic in
    the strip |Im s| < (|w| + Re w)^(1/2), which keeps the rule within about
    3e-16 of K0 relative, times max(1, |w|) for the rounding of e^-w.
    """
    return np.exp(-w) * np.sqrt(0.5 / w) * _laplace_sum(w)


def macdonald_k0(w):
    """Macdonald function K0 on the principal branch, for w off the cut.

    Returns exact 0 once Re w > 700 (the true value is below double
    precision range).  w = 0 is a logarithmic singularity and rejected, and
    so is |w| > 2 with |w| + Re w < 2, next to the cut, which no evaluation
    here covers.

    A nearly real w, Re w > 2 and |Im w| <= _REAL_K0_RATIO |w|, takes the
    Chebyshev series of :func:`_k0_chebyshev`.  Every other w with |w| <= 2
    takes the ascending series K0 = S_0 - log(w/2) I0 (DLMF 10.31.2), and
    the rest the Laplace integral of :func:`_k0_laplace`.
    """
    w_arr = np.asarray(w, dtype=complex)
    x, size = w_arr.real, np.abs(w_arr)
    if np.any(size == 0.0):
        raise ValueError("K0 has a logarithmic singularity at w = 0")
    far = size > 2.0
    if np.any(far & (size + x < 2.0)):
        raise ValueError("K0 is not evaluated next to its cut: |w| > 2 with |w| + Re w < 2")
    near = (x > 2.0) & (np.abs(w_arr.imag) <= _REAL_K0_RATIO * size)
    laplace = far & ~near
    out = np.empty(w_arr.shape, dtype=complex)
    if np.any(near):
        out[near] = _k0_chebyshev(w_arr[near])
    if not np.all(far):
        ws = w_arr[~far]
        i0, s0 = _horner(0.25 * ws * ws, _ASCENDING)
        out[~far] = s0 - np.log(0.5 * ws) * i0
    if np.any(laplace):
        out[laplace] = _k0_laplace(w_arr[laplace])
    out[x > _EXP_RANGE] = 0.0
    if out.ndim == 0:
        return complex(out)
    return out


def bessel_i0(w):
    """Modified Bessel function I0 (entire).

    I0 is even, so w is taken with Re w >= 0.  Where |w| - Re w <= 2 the
    ascending series of :func:`_i0_series`, summed as far as |w| needs,
    loses at most a factor e^2 to cancellation; elsewhere
    I0(w) = i sgn(Im w) (K0(w) - K0(-w)) / pi (DLMF 10.34.2), both K0 from
    :func:`_k0_laplace`, whose strip |w| + Re(-w) > 2 is then wide enough.
    On the series, where |I0| grows like e^|w|, a w with |w| > 700, and
    elsewhere, where it grows like e^(Re w), a w with Re w > 700 is at the
    edge of the double range or past it and refused with a ValueError.
    """
    w_arr = np.asarray(w, dtype=complex)
    v = np.where(w_arr.real < 0.0, -w_arr, w_arr)
    far = np.abs(v) - v.real > 2.0
    out = np.empty(w_arr.shape, dtype=complex)
    if not np.all(far):
        vs = v[~far]
        out[~far] = _i0_series(vs, 0.5 * _series_radius("I0", vs))
    if np.any(far):
        vf = v[far]
        top = int(np.argmax(vf.real))
        if vf[top].real > _EXP_RANGE:
            raise ValueError(f"I0({complex(vf[top]):g}) is out of range: off its series "
                             f"|I0| grows like e^(Re w), which past Re w = {_EXP_RANGE:g} "
                             "nears or leaves the double range")
        out[far] = (1j / math.pi) * np.sign(vf.imag) * (_k0_laplace(vf) - _k0_laplace(-vf))
    if out.ndim == 0:
        return complex(out)
    return out


def exp1(z):
    """Exponential integral E1 on the principal branch, cut along Re z <= 0.

    Where |z| + Re z <= 2 the series E1 = -gamma - log z - sum_k (-z)^k / (k k!)
    (DLMF 6.6.2), whose cancellation grows with |z| + Re z, is within about
    2e-15 relative.  Elsewhere E1 = e^-z int_0^oo e^-s / (z + s) ds
    (DLMF 6.2.2) by the Gauss-Laguerre rule of :func:`_laguerre_rule`, whose
    value is a convergent of the continued fraction of E1 (DLMF 6.9.1); it
    is within about 1.2e-15 there.  On the series, where |E1| grows like
    e^|z| / |z|, a z with |z| > 700 is at the edge of the double range or
    past it and refused with a ValueError.
    """
    z = np.asarray(z, dtype=complex)
    out = np.empty(z.shape, dtype=complex)
    series = np.abs(z) + z.real <= 2.0
    if np.any(series):
        x = z[series]
        term = x.copy()  # (-1)^(k+1) x^k / (k k!), from k = 1
        total = x.copy()
        for k in range(1, _series_terms(_series_radius("E1", x), 1e-17)):
            term *= x
            term *= -k / (k + 1) ** 2
            total += term
        out[series] = total - EULER_GAMMA - np.log(x)
    if not np.all(series):
        y = z[~series]
        nodes, weights = _laguerre_rule()
        out[~series] = np.exp(-y) * ((1.0 / (y[:, None] + nodes)) @ weights)
    return out


def erfcx(w):
    """Scaled complementary error function e^(w^2) erfc(w).

    Weideman's rational series (SIAM J. Numer. Anal. 31, 1994) with
    N = 40 terms for Re w >= 0, where it is within about 1e-15 relative;
    Re w < 0 by erfcx(w) = 2 e^(w^2) - erfcx(-w).
    """
    w = np.asarray(w, dtype=complex)
    left = w.real < 0.0
    v = np.where(left, -w, w)
    lv = _WEIDEMAN_L + v
    poly = _horner((_WEIDEMAN_L - v) / lv, _WEIDEMAN_COEFFS)
    out = np.asarray(2.0 * poly / (lv * lv) + 1.0 / (math.sqrt(math.pi) * lv))
    out[left] = 2.0 * np.exp(w[left] * w[left]) - out[left]
    return out


def erf(w) -> complex:
    """Error function of one complex w: sign (1 - e^(-v^2) erfcx(v)), v = sign w, Re v >= 0."""
    w = complex(w)
    sign = 1.0 if w.real >= 0.0 else -1.0
    v = sign * w
    return sign * (1.0 - cmath.exp(-v * v) * complex(erfcx(v)))


def kappa_n(z: complex, n, ctx: SheetContext):
    """Longitudinal decay rate kappa_n(z) = -i sqrt(z - n^2), Im sqrt > 0.

    Re kappa_n > 0 away from the mode's cut [n^2, oo); for real z < n^2 the
    value is the positive root sqrt(n^2 - z).  Real z >= n^2 is resolved by
    the sheet convention of ``ctx`` (+i0 on the first sheet, -i0 on the
    second).  ``n`` may be an array of mode
    indices; the result then has its shape.
    """
    n = _modes_off_branch(z, n)
    z = nudge_off_axis(z, ctx)
    return -1j * im_positive_sqrt(z - n * n)


def _modes_off_branch(z: complex, n) -> np.ndarray:
    """Mode indices ``n`` as an array; rejects n < 1 and any branch point n^2 = z."""
    n = np.asarray(n)
    if np.any(n < 1):
        raise ValueError("mode index n must be >= 1")
    on_branch = n * n == complex(z)
    if np.any(on_branch):
        m = int(n[on_branch][0])
        raise BranchPointError(f"z = n^2 = {m * m} is a branch point")
    return n


def gamma_n(z: complex, n, ctx: SheetContext, params: SpectralParams):
    """Wire Birman-Schwinger function Gamma_n(z) on either sheet.

    First sheet: (1/2pi)(2 pi alpha - psi(1) + ln(sqrt(z - n^2)/(2i))).
    Second sheet adds -i/2 for the open modes n <= ctx.k and is identical to
    the first sheet otherwise.  The only zero on the first sheet is the
    eigenvalue eps_n = xi_alpha + n^2.  ``n`` may be an array of mode
    indices; the result then has its shape.
    """
    n = _modes_off_branch(z, n)
    z = nudge_off_axis(z, ctx)
    return gamma_from_gap(z - n * n, n, ctx, params)


def gamma_from_gap(w, n, ctx: SheetContext, params: SpectralParams):
    """Gamma_n evaluated from the gap w = z - n^2 supplied directly.

    Near an eigenvalue the gap is tiny (down to ~1e-11 for strong repulsive
    alpha) and forming z = n^2 + w in double precision would wipe it out;
    callers that know the gap exactly (eigenvalue checks, Taylor arguments)
    use this entry point.  ``w`` and ``n`` may be arrays of one shape.
    """
    n = np.asarray(n)
    if np.any(n < 1):
        raise ValueError("mode index n must be >= 1")
    w = np.asarray(w, dtype=complex)
    if np.any(w == 0.0):
        raise BranchPointError("zero gap: z = n^2 is a branch point")
    s = im_positive_sqrt(w)
    val = (2.0 * math.pi * params.alpha - PSI_ONE + np.log(s / 2.0j)) / (2.0 * math.pi)
    if ctx.second:
        val = np.where(n <= ctx.k, val - 0.5j, val)
    return complex(val) if np.ndim(val) == 0 else val


def z0_kernel(z: complex, n, rho, ctx: SheetContext):
    """Kernel building block Z0: K0(kappa_n rho), plus i pi I0(-kappa_n rho)
    for open modes on the second sheet.

    ``n`` may be an array of mode indices; the result has the shape of
    ``rho`` followed by the shape of ``n``.  The mode vectors and the mode
    series of the layer kernel (``greens.layer_green_modal``) take their
    sheet logic from here.  A closed mode away from its threshold has a
    nearly real kappa_n, and the same |Im w| / |w| at every rho, so
    :func:`macdonald_k0` takes its whole column with Re w > 2 from the
    Chebyshev series.
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
