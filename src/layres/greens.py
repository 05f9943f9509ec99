"""Layer Green's kernel on both sheets and the transverse mode functions.

* :class:`EwaldGreen` — the kernel Ewald-summed (spectral part with
  incomplete-gamma coefficients + erfc-screened image charges), uniformly
  accurate in the separation and vectorized over point pairs.  Every matrix
  assembly uses it.
* :func:`layer_green_modal` — its reference, the mode series
  ``(1/2 pi) sum_n Z0(z, n, rho) chi_n chi_n'`` with the Z0 of the mode
  vectors (``specfun.z0_kernel``).  One point pair at a time, about 37/rho
  modes, in-plane separation rho > 0.

The second sheet (continuation through J_k) adds
``(i/2) sum_{n<=k} I0(rho sqrt(n^2 - z)) chi_n chi_n'`` to the first: in the
mode series it is Z0's open-mode term, in EwaldGreen the 2 pi i that E1 gains
across its cut in the open modes' spectral coefficients.
:func:`k0_cosine_sum` is the closed form
of the lattice sum ``sum K0(n rho) cos(na)`` (the paper's Prudnikov
identity); it is scored against the brute sum and feeds no kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import (
    EULER_GAMMA,
    SheetContext,
    erf,
    erfcx,
    exp1,
    first_sheet,
    im_positive_sqrt,
    nudge_off_axis,
    z0_kernel,
)

__all__ = [
    "chi_n",
    "k0_cosine_sum",
    "layer_green_modal",
    "EwaldGreen",
    "EwaldSplit",
    "EwaldTables",
    "calibrate_tail_constant",
]

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_TWO_PI = 2.0 * math.pi
#: lattice terms summed exactly in k0_cosine_sum before the Euler-Maclaurin tail
_N_LATTICE = 512
#: floor of the Ewald parameter chosen from the geometry (EwaldSplit.for_separation)
_ETA_FLOOR = 0.15
#: largest eta * re_top the geometry may choose: the open channels' cancellation
#: grows like e^(eta Re z)
_ETA_RE_TOP = 7.0
#: largest spectral truncation order the geometry may ask for
_J_MAX = 32
#: Most entries of a dense table or series a run may ask for: the mode series
#: here, and elsewhere the n_nodes x n_cut mode table of the rank sum (80 MB of
#: complex entries at the limit), the n_nodes x n_nodes pair tables and the
#: rows of an eigenvalue listing.  A surface next to the wire axis, a huge
#: n_cut or a quadrature order of 48 or more would ask for gigabytes.
_MAX_TABLE_ENTRIES = 5_000_000


def chi_n(n, x3):
    """Transverse Dirichlet mode chi_n(x3) = sqrt(2/pi) sin(n x3).

    The result has the shape of ``x3`` followed by the shape of ``n``.
    """
    return _SQRT_2_OVER_PI * np.sin(np.multiply.outer(x3, n))


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


def layer_green_modal(z: complex, x, xp, ctx: SheetContext,
                      n_max: int | None = None) -> complex:
    """Layer kernel as its mode series (single point pair): the reference for EwaldGreen.

    (1/2 pi) sum_{n <= n_max} Z0(z, n, rho) chi_n(x3) chi_n(x3') with the
    mode vectors' building block Z0 (:func:`specfun.z0_kernel`), which on
    the second sheet carries the open modes' i pi I0 term; ``ctx`` names the
    sheet, and sizes the default mode count by its k.  By default it
    sums ceil(37/rho) + k + 40 modes, enough for the tail e^(-rho n) to fall
    below e^(-37); more than _MAX_TABLE_ENTRIES is refused.  Requires an
    in-plane separation rho > 0.
    """
    rho = float(_pair_geometry(x, xp)[0])
    if rho == 0.0:
        raise ValueError("mode series diverges termwise at rho = 0 "
                         "(use EwaldGreen for vertically aligned pairs)")
    if n_max is None:
        n_max = math.ceil(37.0 / rho) + ctx.k + 40
        if n_max > _MAX_TABLE_ENTRIES:
            raise ValueError(f"separation rho = {rho:g} needs n_max = {n_max}; "
                             "use EwaldGreen for nearly coincident in-plane points")
    elif n_max < 1:
        raise ValueError("n_max must be >= 1")
    n = np.arange(1, n_max + 1)
    chi = chi_n(n, float(np.asarray(x, float)[2])) * chi_n(n, float(np.asarray(xp, float)[2]))
    return complex(np.sum(z0_kernel(z, n, rho, ctx) * chi)) / _TWO_PI


def calibrate_tail_constant() -> float:
    """Empirical constant C with |tail(n_max)| <= C |z| / n_max for the mode series.

    At z = -2 on the first sheet, in-plane separation rho = 0.3 and
    n_max = 2000 modes, against 8 n_max.  A diagnostic only; no run reports
    it, and truncation itself is exponential in rho.
    """
    z, rho, n_max = -2.0, 0.3, 2000
    x = np.array([1.0, 0.0, 1.3])
    xp = np.array([1.0 + rho, 0.0, 0.9])
    coarse = layer_green_modal(z, x, xp, first_sheet(), n_max=n_max)
    fine = layer_green_modal(z, x, xp, first_sheet(), n_max=8 * n_max)
    return abs(coarse - fine) * n_max / max(abs(z), 1.0)


def _spectral_x_max(j_max: int) -> float:
    """Largest x = rho^2 / (4 eta) the j_max-truncated spectral polynomial supports.

    The first omitted term of Phi_n is about x^(j_max+1) / (j_max+1)!,
    amplified through the incomplete-gamma coefficients of the open channels
    by a factor that grows like e^(eta Re z); holding it at 1e-16 keeps the
    kernel within ~1e-13 absolute (about 1e-12 of its scale) on both sheets
    for z up to the window top re_top, while eta re_top <= 7 (the cap of
    :meth:`EwaldSplit.for_separation`).
    """
    return math.exp((math.log(1e-16) + math.lgamma(j_max + 2)) / (j_max + 1))


@dataclass(frozen=True)
class EwaldSplit:
    """Ewald parameter eta, spectral truncation j_max, and the ranges they need.

    ``re_top`` sizes the ranges; :meth:`for_separation` takes it from the
    window of a sheet, a split built directly may take any.  The spectral
    part keeps ceil(sqrt(re_top + 42/eta)) + 2 modes, which leaves each
    omitted one below e^(-42) of its Gaussian scale, and the image charges beyond
    r_cut = 2 sqrt(eta (40 + re_top eta)) are below 1e-14 of the kernel
    scale.  A larger Re z is served too: what the ranges leave out grows
    like e^(eta Re z), as does the rounding error of the open channels'
    cancellation, and stays e^(-40) below it.  Pairs are admitted up to the
    in-plane separation rho_max = 2 sqrt(eta x), x = :func:`_spectral_x_max` (j_max).
    """

    eta: float
    j_max: int
    re_top: float

    @property
    def n_spectral(self) -> int:
        return int(math.ceil(math.sqrt(max(self.re_top, 0.0) + 42.0 / self.eta))) + 2

    @property
    def r_cut(self) -> float:
        return 2.0 * math.sqrt(self.eta * (40.0 + max(self.re_top, 0.0) * self.eta))

    @property
    def rho_max(self) -> float:
        return 2.0 * math.sqrt(self.eta * _spectral_x_max(self.j_max))

    @classmethod
    def for_separation(cls, rho: float, ctx: SheetContext) -> "EwaldSplit":
        """The split for in-plane separations up to ``rho`` in the window of ``ctx``.

        Its ranges are sized for Re z up to the window top re_top = (k+1)^2
        (:attr:`SheetContext.window`), so every open mode n <= k is a
        spectral one (n_spectral > k), as the second sheet's continuation
        needs.  eta is the smallest value in [_ETA_FLOOR, cap] whose
        j_max = _J_MAX spectral radius admits rho, rounded radius included:
        a smaller eta keeps fewer images and more (cheap, tabulated) spectral
        modes.  Then j_max is the smallest order whose radius at that eta
        still admits rho.  The cap is min(1, 7 / re_top): a larger eta
        multiplies the cancellation of the open channels by e^(eta Re z),
        which past e^7 spoils the kernel in the windows J_k, k >= 3.  Where
        the cap lies below _ETA_FLOOR it is the floor too, and a rho beyond
        the radius at the cap is refused.
        """
        re_top = ctx.window[1]
        x_top = _spectral_x_max(_J_MAX)
        cap = _ETA_RE_TOP / max(re_top, _ETA_RE_TOP)  # min(1, 7 / re_top)
        eta = max(min(_ETA_FLOOR, cap), rho * rho / (4.0 * x_top))
        while cls(eta, _J_MAX, re_top).rho_max < rho:  # short of rho by rounding alone
            eta = math.nextafter(eta, math.inf)
        if eta > cap:
            raise ValueError(f"pair separation rho = {rho:.3f} exceeds the j_max = {_J_MAX} "
                             f"spectral radius {2.0 * math.sqrt(cap * x_top):.3f} "
                             f"at eta = {cap:.4g}")
        splits = (cls(eta, j_max, re_top) for j_max in range(_J_MAX + 1))
        return next(split for split in splits if split.rho_max >= rho)


def _sine_products(x3, x3p, n_modes):
    """2 sin(n x3) sin(n x3') = cos(n a-) - cos(n a+) of each pair, n = 1..n_modes.

    One sine per distinct height of both ends and mode, gathered to the
    pairs.  The product is formed in place, so that one pair table is held
    beside the result, and the height index is freed with this frame.
    """
    # np.unique without index outputs would import numpy.ma (about 15 ms)
    # on its first call
    heights, at = np.unique(np.concatenate((x3, x3p)), return_inverse=True)
    sine = np.sin(np.multiply.outer(heights, np.arange(1, n_modes + 1)))
    out = sine[at[:len(x3)]]
    out *= 2.0
    out *= sine[at[len(x3):]]
    return out


class EwaldTables:
    """Everything z-independent of :meth:`EwaldGreen.pairs` for the pairs x, xp.

    x and xp are points of shape (3,) or (N, 3), paired row by row; the
    tables are flat, one entry per pair.  For one split: the spectral table
    cos(n a-) - cos(n a+) = 2 sin(n x3) sin(n x3') over its modes, taken
    from one sine per distinct height and mode, the powers rho^(2j) up to
    its j_max, and the image charges a-/+ + 2 pi m at distance 0 < R < r_cut.
    Each image is a pair index ``image_pair``, a weight ``image_weight`` =
    +-e^(-R^2 / 4 eta) / R (+ for a-, - for a+) and an index ``image_at``
    into ``image_u``, the sorted distinct u = R / (2 sqrt(eta)): pairs with
    the same rho and a-/+ share their whole row of images, so on a rectangle
    about half the images repeat a u.  Nothing in them depends on the sheet.
    ``coincident`` indexes the pairs with x = x', whose singular m = 0 image
    is left out like every R = 0.  Separations beyond the split's rho_max are
    refused.
    """

    def __init__(self, x, xp, split: EwaldSplit):
        x, xp = np.atleast_2d(x, xp)
        rho, a_minus, a_plus = _pair_geometry(x, xp)
        if float(np.max(rho)) > split.rho_max:
            raise ValueError(f"pair separation rho = {np.max(rho):.3f} exceeds the "
                             f"j_max = {split.j_max} spectral radius {split.rho_max:.3f}")
        self.split = split
        self.coincident = np.flatnonzero((rho == 0.0) & (a_minus == 0.0))
        self.cos_diff = _sine_products(*np.broadcast_arrays(x[:, 2], xp[:, 2]),
                                       split.n_spectral)
        # complex once here: a real table would be cast at every kernel evaluation
        self.powers = ((rho * rho)[:, None] ** np.arange(split.j_max + 1)).astype(complex)
        index, dist, sign = [], [], []
        for a, s in ((a_minus, 1.0), (a_plus, -1.0)):
            # every m that can bring |a + 2 pi m| below r_cut
            m_lo = math.floor((-split.r_cut - a.max()) / _TWO_PI)
            m_hi = math.ceil((split.r_cut - a.min()) / _TWO_PI)
            for m in range(m_lo, m_hi + 1):
                R = np.hypot(rho, a + _TWO_PI * m)
                keep = np.flatnonzero((R > 0.0) & (R < split.r_cut))
                index.append(keep)
                dist.append(R[keep])
                sign.append(np.full(len(keep), s))
        dist = np.concatenate(dist)
        self.image_pair = np.concatenate(index)
        self.image_weight = np.concatenate(sign) * np.exp(-dist * dist / (4.0 * split.eta)) / dist
        self.image_u, self.image_at = np.unique(dist / (2.0 * math.sqrt(split.eta)),
                                                return_inverse=True)


class EwaldGreen:
    """Ewald-summed layer kernel at fixed z under one :class:`EwaldSplit`.

    The cosine-series form of the kernel is split at the Ewald parameter
    eta of the split: the large-t (spectral) part keeps
    ~sqrt(Re z + 42/eta) modes with Gaussian decay, the small-t part
    Poisson-sums into screened image charges e^{-sR} erfc(...) within the
    split's r_cut.  The a-independent n = 0 term cancels between the two
    transverse cosine arguments and is dropped, which also removes the
    spurious sqrt(-z) cut below the first threshold.

    Everything z-independent of a set of pairs is an :class:`EwaldTables`
    of the same split, built once and evaluated at any z.
    """

    def __init__(self, z: complex, split: EwaldSplit, ctx: SheetContext):
        self.split, self.ctx = split, ctx
        self.z = nudge_off_axis(z, ctx)
        self.s = -1j * im_positive_sqrt(self.z)  # sqrt(-z), branch-matched
        self._prepare_spectral_coeffs()

    def _prepare_spectral_coeffs(self):
        eta, j_max = self.split.eta, self.split.j_max
        beta = np.arange(1, self.split.n_spectral + 1) ** 2 - self.z
        x = beta * eta
        d = np.empty((j_max + 1, len(beta)), dtype=complex)
        # E1 first: it refuses an x out of its range before exp(-x) overflows
        d[0] = exp1(x)
        emx = np.exp(-x)
        if self.ctx.second:
            # E1 of the open modes n <= k continued across its cut,
            # E1(x e^(-2 pi i)) = E1(x) + 2 pi i (DLMF 6.4).  The recurrence
            # carries it as 2 pi i (-beta)^j / j!, so Phi_n gains
            # i pi I0(rho sqrt(beta)): the kernel gains (i/2) I0 chi_n chi_n'.
            # Every open mode is a spectral one: a split of this window
            # (EwaldSplit.for_separation) has n_spectral >= sqrt(re_top) + 2.
            d[0, :self.ctx.k] += 2j * math.pi
        pw = 1.0
        for j in range(1, j_max + 1):
            pw /= eta
            # d_j = beta^j Gamma(-j, beta eta), by upward recurrence from E1
            d[j] = (pw * emx - beta * d[j - 1]) / j
        j = np.arange(j_max + 1)
        # Phi_n(rho) = 1/2 sum_j (-rho^2/4)^j / j! * d[j, n]
        fact = np.array([math.factorial(i) for i in j], dtype=float)
        self._poly = 0.5 * ((-0.25) ** j / fact)[:, None] * d  # (J+1, N)

    def pairs(self, tables: EwaldTables):
        """Kernel values of the pairs of ``tables``, one per pair.

        The tables must be of this kernel's split, and serve either sheet:
        the sheet is in the spectral coefficients.  At a coincident pair the
        value is the diagonal limit of the kernel minus its 1/(4 pi |x - x'|)
        singularity.  The m = 0 image of the a_minus sum carries the
        singularity; the tables leave it out, and its regularized value is
        (pi/2) f'(0) with f'(0) = -2 s erf(s sqrt(eta)) - 2 e^{z eta} / sqrt(pi eta).
        The image charges take erfcx once per distinct distance of the
        tables, and each image its own value of it: the same numbers, in
        the same order, as a call at every image.
        """
        if tables.split != self.split:
            raise ValueError("the tables were built for another Ewald split")
        spectral = 2.0 * np.sum(tables.cos_diff * (tables.powers @ self._poly), axis=-1)
        # f(R) / R with f(R) = e^{-sR} erfc(R/2 sqrt(eta) - s sqrt(eta)) + (s -> -s), via
        # erfcx at each distinct u = R/2 sqrt(eta), gathered to the images
        sv = self.s * math.sqrt(self.split.eta)
        u = tables.image_u
        f = tables.image_weight * (erfcx(u - sv) + erfcx(u + sv))[tables.image_at]
        size = len(spectral)
        real = (np.bincount(tables.image_pair, f.real, size)
                + 1j * np.bincount(tables.image_pair, f.imag, size)) \
            * (0.5 * math.pi * np.exp(self.z * self.split.eta))
        val = (spectral + real) / (4.0 * math.pi ** 2)
        if len(tables.coincident):
            eta = self.split.eta
            f_prime0 = -2.0 * self.s * erf(sv) \
                - 2.0 * np.exp(self.z * eta) / math.sqrt(math.pi * eta)
            val[tables.coincident] += f_prime0 / (8.0 * math.pi)
        return val

    def __call__(self, x, xp):
        """Kernel values for points x, xp of shape (3,) or (N, 3); coincident points are refused.

        A complex for two (3,) points, else an array with one value per pair.
        """
        tables = EwaldTables(x, xp, self.split)
        if len(tables.coincident):
            raise ValueError("coincident points; use regularized_diag for the diagonal limit")
        return self._values(tables, np.ndim(x) == np.ndim(xp) == 1)

    def regularized_diag(self, x):
        """Diagonal limit of the kernel minus its singularity at points x: the (x, x) pairs."""
        return self._values(EwaldTables(x, x, self.split), np.ndim(x) == 1)

    def _values(self, tables: EwaldTables, point: bool):
        out = self.pairs(tables)
        return complex(out[0]) if point else out
