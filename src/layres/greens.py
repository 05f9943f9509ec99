"""Layer Green's kernel on both sheets and the transverse mode functions.

Two evaluation routes are provided and cross-checked against each other:

* :func:`layer_green` — the split evaluation: a truncated difference series
  ``sum [K0(kappa_n rho) - K0(n rho)] chi chi'`` plus the closed form of the
  lattice sum ``sum K0(n rho) cos(na)`` (:func:`k0_cosine_sum`).  Transparent
  and auditable, but termwise; cost grows like 1/rho near the diagonal.
* :class:`EwaldGreen` — the same kernel Ewald-summed (spectral part with
  incomplete-gamma coefficients + erfc-screened image charges), uniformly
  accurate in the separation and vectorized over point pairs.  This is what
  the matrix assembly uses; the split route serves as its independent check.

The second sheet (continuation through J_k) is a finite additive correction
``(i/2) sum_{n<=k} I0(-kappa_n rho) chi_n chi_n'`` on either route.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as _sp

from .specfun import (
    EULER_GAMMA,
    SheetContext,
    bessel_i0,
    first_sheet,
    im_positive_sqrt,
    kappa_n,
    nudge_off_axis,
)

__all__ = [
    "chi_n",
    "k0_cosine_sum",
    "layer_green",
    "layer_green_modal",
    "EwaldGreen",
    "calibrate_tail_constant",
]

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_TWO_PI = 2.0 * math.pi
#: lattice terms summed exactly in k0_cosine_sum before the Euler-Maclaurin tail
_N_LATTICE = 512
#: Ewald splitting parameter and the image range |m| <= _M_IMAGES of EwaldGreen
_ETA = 1.0
_M_IMAGES = 3


def chi_n(n, x3):
    """Transverse Dirichlet mode chi_n(x3) = sqrt(2/pi) sin(n x3).

    The result has the shape of ``x3`` followed by the shape of ``n``.
    """
    return _SQRT_2_OVER_PI * np.sin(np.multiply.outer(x3, n))


def _split_n_max(rho: float, k: int) -> int:
    """Modes of the split difference series at in-plane separation rho > 0.

    Enough for its exponential tail e^(-rho n) to fall below e^(-30), and at
    least k + 40; more than 5 000 000 is refused.
    """
    n_max = max(int(math.ceil(30.0 / rho)) + 20, k + 40)
    if n_max > 5_000_000:
        raise ValueError(f"separation rho = {rho:g} needs n_max = {n_max}; "
                         "use EwaldGreen for nearly coincident in-plane points")
    return n_max


def _lattice_term(m, aa, rho):
    return 1.0 / np.sqrt(rho * rho + (_TWO_PI * m + aa) ** 2) - 1.0 / (_TWO_PI * m)


def _lattice_term_deriv(m, aa, rho):
    u = _TWO_PI * m + aa
    return -_TWO_PI * u / (rho * rho + u * u) ** 1.5 + 1.0 / (_TWO_PI * m * m)


def _lattice_tail_integral(m0, aa, rho):
    # int_{m0}^inf [1/sqrt(rho^2+(2 pi m + aa)^2) - 1/(2 pi m)] dm, closed form
    return (math.log(4.0 * math.pi / rho) + math.log(m0)
            - math.asinh((_TWO_PI * m0 + aa) / rho)) / _TWO_PI


def k0_cosine_sum(rho: float, a: float) -> float:
    """Closed form of the lattice sum sum_{n>=1} K0(n rho) cos(n a).

    Leading image 1/(2 sqrt(rho^2+a^2)) plus a logarithmic constant and two
    slowly convergent image corrections, summed with a midpoint
    Euler-Maclaurin tail so the truncation error sits near machine precision.
    """
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    a = float(a) % _TWO_PI
    val = 0.5 * (math.log(rho / (4.0 * math.pi)) + EULER_GAMMA)
    val += math.pi / (2.0 * math.hypot(rho, a))
    m = np.arange(1, _N_LATTICE + 1, dtype=float)
    m0 = _N_LATTICE + 0.5
    lattice = 0.0
    for aa in (a, -a):
        lattice += float(np.sum(_lattice_term(m, aa, rho)))
        lattice += _lattice_tail_integral(m0, aa, rho)
        lattice += _lattice_term_deriv(m0, aa, rho) / 24.0
    return val + 0.5 * math.pi * lattice


def _pair_geometry(x, xp):
    x = np.asarray(x, float)
    xp = np.asarray(xp, float)
    d = x[..., :2] - xp[..., :2]
    rho = np.hypot(d[..., 0], d[..., 1])
    return rho, np.abs(x[..., 2] - xp[..., 2]), x[..., 2] + xp[..., 2]


def _second_sheet_correction(z, rho, x3, x3p, ctx: SheetContext):
    """(i/2) sum_{n<=k} I0(-kappa_n rho) chi_n(x3) chi_n(x3'), z off the axis."""
    n = np.arange(1, ctx.k + 1)
    i0 = bessel_i0(np.multiply.outer(rho, -kappa_n(z, n, ctx)))
    return np.sum(0.5j * i0 * chi_n(n, x3) * chi_n(n, x3p), axis=-1)


def layer_green(z: complex, x, xp, ctx: SheetContext | None = None,
                n_max: int | None = None) -> complex:
    """Layer kernel via the split evaluation (single point pair).

    Difference series (smooth, truncated after ``n_max`` modes; by default
    enough for its exponential tail to fall below e^(-30)) plus the exact
    closed form of the K0(n rho) lattice part through :func:`k0_cosine_sum`.
    Requires an in-plane separation rho > 0.
    """
    ctx = ctx or first_sheet()
    rho, a_minus, a_plus = _pair_geometry(x, xp)
    rho = float(rho)
    if rho == 0.0:
        raise ValueError("split evaluation needs in-plane separation rho > 0 "
                         "(use EwaldGreen for vertically aligned pairs)")
    if n_max is None:
        n_max = _split_n_max(rho, ctx.k)
    elif n_max < 1:
        raise ValueError("n_max must be >= 1")
    zc = nudge_off_axis(z, ctx)
    n = np.arange(1, n_max + 1)
    kap = kappa_n(zc, n, ctx)
    x3 = float(np.asarray(x, float)[2])
    x3p = float(np.asarray(xp, float)[2])
    chi = chi_n(n, x3) * chi_n(n, x3p)
    diff = _sp.kv(0, kap * rho) - _sp.kv(0, n * rho)
    val = complex(np.sum(diff * chi)) / _TWO_PI
    val += (k0_cosine_sum(rho, float(a_minus)) - k0_cosine_sum(rho, float(a_plus))) \
        / (2.0 * math.pi ** 2)
    if ctx.second:
        val += _second_sheet_correction(zc, rho, x3, x3p, ctx)
    return val


def layer_green_modal(z: complex, x, xp, ctx: SheetContext | None = None,
                      n_max: int = 10_000) -> complex:
    """Brute-force mode-series summation; slow reference for cross-checks."""
    ctx = ctx or first_sheet()
    rho, _, _ = _pair_geometry(x, xp)
    rho = float(rho)
    if rho == 0.0:
        raise ValueError("mode series diverges termwise at rho = 0")
    zc = nudge_off_axis(z, ctx)
    n = np.arange(1, n_max + 1)
    kap = kappa_n(zc, n, ctx)
    x3 = float(np.asarray(x, float)[2])
    x3p = float(np.asarray(xp, float)[2])
    chi = chi_n(n, x3) * chi_n(n, x3p)
    val = complex(np.sum(_sp.kv(0, kap * rho) * chi)) / _TWO_PI
    if ctx.second:
        val += _second_sheet_correction(zc, rho, x3, x3p, ctx)
    return val


def calibrate_tail_constant(z: complex = -2.0, rho: float = 0.3,
                            n_max: int = 2000) -> float:
    """Empirical constant C with |tail(n_max)| <= C |z| / n_max for the split.

    A diagnostic of the split route only; no run reports it, and truncation
    itself is exponential in rho.
    """
    x = np.array([1.0, 0.0, 1.3])
    xp = np.array([1.0 + rho, 0.0, 0.9])
    coarse = layer_green(z, x, xp, n_max=n_max)
    fine = layer_green(z, x, xp, n_max=8 * n_max)
    return abs(coarse - fine) * n_max / max(abs(z), 1.0)


def _spectral_x_max(j_max: int) -> float:
    """Largest x = rho^2 / (4 eta) the j_max-truncated spectral polynomial supports.

    The first omitted term of Phi_n is about x^(j_max+1) / (j_max+1)!,
    amplified by up to ~50 through the incomplete-gamma coefficients of the
    open channels; holding it at 1e-16 keeps the kernel within ~1e-13
    absolute (about 1e-12 of its scale) for z in J_1 and J_2 on both sheets.
    """
    return math.exp((math.log(1e-16) + math.lgamma(j_max + 2)) / (j_max + 1))


class EwaldGreen:
    """Ewald-summed layer kernel at fixed z, vectorized over point pairs.

    The cosine-series form of the kernel is split at Ewald parameter
    eta = _ETA: the large-t (spectral) part keeps ~sqrt(Re z + 40/eta) modes
    with Gaussian decay, the small-t part Poisson-sums into screened image
    charges e^{-sR} erfc(...) over |m| <= _M_IMAGES.  The a-independent n = 0
    term cancels between the two transverse cosine arguments and is dropped,
    which also removes the spurious sqrt(-z) cut below the first threshold.
    """

    def __init__(self, z: complex, ctx: SheetContext | None = None, j_max: int = 32):
        self.ctx = ctx or first_sheet()
        self.z = nudge_off_axis(z, self.ctx)
        self.s = -1j * im_positive_sqrt(self.z)  # sqrt(-z), branch-matched
        n_spectral = int(math.ceil(math.sqrt(max(self.z.real, 0.0) + 42.0 / _ETA))) + 2
        self.n_modes = np.arange(1, n_spectral + 1)
        self.j_max = int(j_max)
        self._prepare_spectral_coeffs()
        self.rho_max = 2.0 * math.sqrt(_ETA * _spectral_x_max(self.j_max))

    def _prepare_spectral_coeffs(self):
        beta = self.n_modes.astype(float) ** 2 - self.z
        x = beta * _ETA
        emx = np.exp(-x)
        d = np.empty((self.j_max + 1, len(beta)), dtype=complex)
        d[0] = _sp.exp1(x)
        inv_eta = 1.0 / _ETA
        pw = 1.0
        for j in range(1, self.j_max + 1):
            pw *= inv_eta
            # d_j = beta^j Gamma(-j, beta eta), by downward recurrence from E1
            d[j] = (pw * emx - beta * d[j - 1]) / j
        j = np.arange(self.j_max + 1)
        fac = _sp.factorial(j)
        # Phi_n(rho) = 1/2 sum_j (-rho^2/4)^j / j! * d[j, n]
        self._poly = 0.5 * ((-0.25) ** j / fac)[:, None] * d  # (J+1, N)

    def _phi(self, rho2):
        # rho2: (...,) -> (..., N) values of Phi_n(rho)
        powers = rho2[..., None] ** np.arange(self.j_max + 1)  # (..., J+1)
        return powers @ self._poly

    def _realspace_f(self, R):
        # f(R) = e^{-sR} erfc(R/2 sqrt(eta) - s sqrt(eta)) + (s -> -s), via erfcx
        u = R / (2.0 * math.sqrt(_ETA))
        sv = self.s * math.sqrt(_ETA)
        pref = np.exp(-R * R / (4.0 * _ETA) + self.z * _ETA)
        return pref * (_sp.erfcx(u - sv) + _sp.erfcx(u + sv))

    def _real_sum(self, rho, a):
        total = np.zeros(np.broadcast_shapes(np.shape(rho), np.shape(a)), dtype=complex)
        # screened images beyond R_cut are below 1e-14 of the kernel scale
        r_cut = 2.0 * math.sqrt(_ETA * (40.0 + max(self.z.real, 0.0) * _ETA))
        for m in range(-_M_IMAGES, _M_IMAGES + 1):
            R = np.hypot(rho, a + _TWO_PI * m)
            keep = R < r_cut
            if not np.any(keep):
                continue
            if np.all(keep):
                total += self._realspace_f(R) / R
            else:
                Rk = R[keep]
                total[keep] += self._realspace_f(Rk) / Rk
        return 0.5 * math.pi * total

    def pairs(self, x, xp):
        """Kernel values for stacked pairs x, xp of shape (..., 3)."""
        rho, a_minus, a_plus = _pair_geometry(x, xp)
        rho = np.atleast_1d(np.asarray(rho, float))
        a_minus = np.atleast_1d(np.asarray(a_minus, float))
        a_plus = np.atleast_1d(np.asarray(a_plus, float))
        if np.any((rho == 0.0) & (a_minus == 0.0)):
            raise ValueError("coincident points; use regularized_diag for the diagonal limit")
        if float(np.max(rho)) > self.rho_max:
            raise ValueError(f"pair separation rho = {np.max(rho):.3f} exceeds the "
                             f"j_max = {self.j_max} spectral radius {self.rho_max:.3f}")
        phi = self._phi(rho * rho)  # (..., N)
        n = self.n_modes
        cos_diff = np.cos(np.multiply.outer(a_minus, n)) - np.cos(np.multiply.outer(a_plus, n))
        spectral = 2.0 * np.sum(cos_diff * phi, axis=-1)
        real = self._real_sum(rho, a_minus) - self._real_sum(rho, a_plus)
        val = (spectral + real) / (4.0 * math.pi ** 2)
        if self.ctx.second:
            x3 = np.atleast_1d(np.asarray(x, float)[..., 2])
            x3p = np.atleast_1d(np.asarray(xp, float)[..., 2])
            val = val + _second_sheet_correction(self.z, rho, x3, x3p, self.ctx)
        return val

    def __call__(self, x, xp):
        out = self.pairs(np.atleast_2d(np.asarray(x, float)),
                         np.atleast_2d(np.asarray(xp, float)))
        if out.size == 1:
            return complex(out.reshape(())[()])
        return out

    def regularized_diag(self, x):
        """Diagonal limit of the kernel minus its 1/(4 pi |x - x'|) singularity.

        The m = 0 image of the a_minus sum carries the singularity; its
        regularized value is (pi/2) f'(0) with
        f'(0) = -2 s erf(s sqrt(eta)) - 2 e^{z eta} / sqrt(pi eta).
        """
        x = np.atleast_2d(np.asarray(x, float))
        # the limit depends on x3 alone: evaluate once per distinct x3
        x3, back = np.unique(x[..., 2].ravel(), return_inverse=True)
        a_plus = 2.0 * x3
        zero = np.zeros_like(x3)
        phi0 = self._phi(zero)  # (..., N): Phi_n(0) = E1(beta eta)/2
        n = self.n_modes
        cos_diff = 1.0 - np.cos(np.multiply.outer(a_plus, n))
        spectral = 2.0 * np.sum(cos_diff * phi0, axis=-1)
        # a_minus = 0 images, m != 0 (pairs m, -m coincide)
        real_minus = np.zeros_like(x3, dtype=complex)
        for m in range(1, _M_IMAGES + 1):
            R = _TWO_PI * m
            real_minus += 2.0 * self._realspace_f(np.full_like(x3, R)) / R
        sv = self.s * math.sqrt(_ETA)
        f_prime0 = -2.0 * self.s * _sp.erf(sv) \
            - 2.0 * np.exp(self.z * _ETA) / math.sqrt(math.pi * _ETA)
        real_minus += f_prime0
        real = 0.5 * math.pi * real_minus - self._real_sum(zero, a_plus)
        val = (spectral + real) / (4.0 * math.pi ** 2)
        if self.ctx.second:
            val = val + _second_sheet_correction(self.z, zero, x3, x3, self.ctx)
        val = val[back].reshape(x.shape[:-1])
        if val.size == 1:
            return complex(val.reshape(())[()])
        return val
