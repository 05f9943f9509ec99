"""Pole location, delta sweeps and the lowest-order asymptotics.

The embedded eigenvalue eps_l = xi_alpha + l^2 of the wire-only problem
turns into a second-sheet pole z_l(delta) of the resolvent once the surface
impurity Sigma_delta is switched on.  This module finds that pole as a root
of eta_l (with the determinant root as an independent cross-check), sweeps
the scaling parameter delta, fits power laws to Re mu and Im mu, and
evaluates the closed-form lowest-order expressions for comparison.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .bs_operator import TAIL_TOL, SystemState, assemble_A_l, assemble_free, \
    bs_determinant, check_pair_tables, eta_l, mode_cutoff, mode_table, mode_vector, \
    pair_layout
from .geometry import Surface, build_quadrature, scale_surface
from .greens import chi_n
from .specfun import SpectralParams, gamma_n, second_sheet

__all__ = [
    "EigenvalueInfo",
    "PoleResult",
    "SweepResult",
    "ThresholdCollisionError",
    "ConvergenceError",
    "embedded_eigenvalues",
    "window_index",
    "pole_state",
    "find_pole",
    "find_determinant_root",
    "mu_lowest_order",
    "im_mu_closed_form",
    "sweep_delta",
    "fit_power_law",
    "MIN_SWEEP_POINTS",
    "ROOT_TOL",
    "DEFAULT_ORDER",
]

#: fewest converged poles a sweep fits its power laws to
MIN_SWEEP_POINTS = 4
#: finest root tolerance a search resolves, and the default of every search
ROOT_TOL = 1e-12
#: quadrature order of a state or sweep that names none
DEFAULT_ORDER = 16
#: secant steps a root search takes before it gives up
_MAX_ITER = 50


class ThresholdCollisionError(ValueError):
    """eps_n sits on a threshold k^2; the window k is undefined there."""


class ConvergenceError(ArithmeticError):
    """The root iteration did not reach the tolerance."""


class EigenvalueInfo(NamedTuple):
    n: int
    value: float
    kind: str  # "discrete" or "embedded"
    window: int | None  # k with value in J_k = (k^2, (k+1)^2); None if discrete


@dataclass(frozen=True)
class PoleResult:
    z: complex
    mu: complex
    l: int
    k: int
    delta: float
    residual: float
    iterations: int
    diagnostics: dict

    def __post_init__(self):
        if self.z.imag > 1e-12:
            raise ArithmeticError(f"pole at {self.z} lies above the real axis")


@dataclass(frozen=True)
class SweepResult:
    poles: list  # PoleResult of every converged point, in delta order
    fit_im: tuple  # (exponent, prefactor, r_squared) of |Im mu| vs delta
    fit_re: tuple
    closed_form_im: list  # Proposition value at each converged delta
    failures: list  # (delta, error message) for points that did not converge
    n_cut: int  # mode cutoff at the largest delta


def window_index(value: float) -> int:
    """k with value in J_k = (k^2, (k+1)^2); rejects threshold collisions.

    A value below the first threshold 1 lies in no window and is refused.
    """
    if value < 1.0:
        raise ValueError(f"eigenvalue {value} lies below the first threshold 1: "
                         f"it is discrete, in no window J_k")
    k = int(math.floor(math.sqrt(value)))
    if abs(value - k**2) < 1e-8 or abs(value - (k + 1) ** 2) < 1e-8:
        raise ThresholdCollisionError(f"eigenvalue {value} sits on a threshold")
    return k


def embedded_eigenvalues(params: SpectralParams, n_range) -> list[EigenvalueInfo]:
    """Classify eps_n = xi_alpha + n^2 as discrete (< 1) or embedded in J_k."""
    out = []
    for n in n_range:
        if n < 1:
            raise ValueError("mode indices start at 1")
        eps = params.eigenvalue(n)
        if eps < 1.0:
            out.append(EigenvalueInfo(n, eps, "discrete", None))
        else:
            out.append(EigenvalueInfo(n, eps, "embedded", window_index(eps)))
    return out


def _delta_states(surface: Surface, deltas: Sequence[float], l: int,
                  params: SpectralParams, order: int, tail_tol: float,
                  n_cut: int | None) -> Iterator[SystemState]:
    """States of eps_l at each of ``deltas``, on the second sheet of its window.

    Everything the arguments decide is refused before any n x n array
    exists: a discrete eps_l and then an order whose pair tables are too
    large (:func:`check_pair_tables`) before any rule, then, in delta order,
    each delta-copy's axis refusal and :func:`mode_cutoff`.  The copies come
    from one :func:`scale_surface` call, which searches the r_min of every
    delta at once and checks nothing else of a copy (the homothety keeps the
    rest of the surface check), and refuses a copy only when it is taken.
    Only then is the pair layout of the order-``order`` rule on ``surface``
    built, once, and each state made with its :meth:`PairLayout.scaled`
    copy, one at a time, so that each state and its Ewald tables are freed
    with its pole.
    """
    eps_l = params.eigenvalue(l)
    ctx = second_sheet(window_index(eps_l))
    check_pair_tables(order)
    base_rule = build_quadrature(surface, order)
    copies = []
    for d, copy in zip(deltas, scale_surface(surface, deltas)):
        rule = base_rule if d == 1.0 else build_quadrature(copy, order)
        copies.append((d, rule, mode_cutoff(rule, ctx, eps_l, tail_tol, n_cut)))
    layout = pair_layout(base_rule)
    for d, rule, cut in copies:
        yield SystemState(params, rule, ctx, l, n_cut=cut, layout=layout.scaled(d), delta=d)


def pole_state(surface: Surface, delta: float, l: int, params: SpectralParams,
               order: int = DEFAULT_ORDER, tail_tol: float = TAIL_TOL,
               n_cut: int | None = None) -> SystemState:
    """System state on the scaled surface, on the second sheet of eps_l's window.

    The one state of :func:`_delta_states` at ``delta``: its refusals come
    before the pair layout, which is built on the order-``order`` rule of
    the unscaled ``surface`` and scaled to delta.
    """
    return next(_delta_states(surface, [delta], l, params, order, tail_tol, n_cut))


def _secant(f: Callable[[complex], complex], z0: complex, f0: complex, z1: complex,
            tol: float, step_tol: float) -> tuple[complex, complex, int]:
    """Secant iteration on f from z0, where f is f0, and z1.

    One evaluation per point after z0.  Stops at the first point after z0
    whose |f| is below ``tol`` and whose step from the point before is at
    most ``step_tol``, and returns (z, f(z), secant steps taken after the
    two start points).  More than _MAX_ITER steps are refused.
    """
    seed = z0
    if not cmath.isfinite(z1):
        raise _stalled(seed, 0, z0, f0)
    f1 = f(z1)
    steps = 0
    while not (abs(f1) < tol and abs(z1 - z0) <= step_tol):
        step = f1 * (z1 - z0) / (f1 - f0) if f1 != f0 else math.inf
        if steps == _MAX_ITER or not cmath.isfinite(step):
            raise _stalled(seed, steps, z1, f1)
        z0, f0 = z1, f1
        z1 = z1 - step
        f1 = f(z1)
        steps += 1
    return z1, f1, steps


def _stalled(seed: complex, steps: int, z: complex, fz: complex) -> ConvergenceError:
    """Error of a search from ``seed`` that stopped at z, with f(z) = fz, after ``steps``."""
    return ConvergenceError(f"root iteration failed after {steps} steps from z = {seed}: "
                            f"stopped at z = {z} with |f| = {abs(fz):.3g}")


def _pole_result(state: SystemState, z: complex, residual: float, iterations: int,
                 diagnostics: dict) -> PoleResult:
    """Pole of the state's eps_l at the root z of a search; a root outside J_k is refused.

    Its ``diagnostics`` are n_cut, n_nodes and then those of the search.
    """
    eps_l, k, (lo, hi) = state.params.eigenvalue(state.l), state.ctx.k, state.ctx.window
    if not lo < z.real < hi:
        raise ConvergenceError(f"root {z} escaped the window J_{k}")
    diagnostics = {"n_cut": state.n_cut, "n_nodes": state.rule.n_nodes, **diagnostics}
    return PoleResult(z=z, mu=z - eps_l, l=state.l, k=k, delta=state.delta,
                      residual=residual, iterations=iterations, diagnostics=diagnostics)


def find_pole(state: SystemState, seed: complex | None = None,
              tol: float = ROOT_TOL) -> PoleResult:
    """Second-sheet pole z_l(delta) at the l and delta of ``state``, from eps_l.

    For l > k, Gamma_l(z) = (2 pi alpha - psi(1) + ln(sqrt(z - l^2) / 2i)) / 2 pi
    inverts exactly, so eta_l = Gamma_l - beta theta_l = 0 is the fixed point
    z = F(z) = l^2 + (z - l^2) exp(-4 pi eta_l(z)).  F contracts by
    |4 pi beta (z - l^2) theta_l'|, small since theta_l is O(delta^2).  The
    secant runs on g(z) = z - F(z) = (z - l^2)(1 - exp(-4 pi eta_l(z))) from
    the seed and F(seed), stops at the first point with |g| < tol, the seed
    included, and returns F there, z - g, at no further eta_l.  The residual
    |g| is the distance in z from that point to F of it.  A point with
    |4 pi eta_l| >= 1 is refused: g vanishes there only because z = l^2 or
    exp(-4 pi eta_l) = 1, and so is a ``tol`` below ROOT_TOL.
    ``diagnostics`` of the result describe the whole search: the number of
    eta_l evaluations, the worst condition number of the guarded solve and
    ``contraction``, the estimate |1 - (g1 - g0)/(z1 - z0)| of |F'| from the
    last two points.
    """
    if tol < ROOT_TOL:
        raise ValueError(f"tolerance below {ROOT_TOL:g} is not resolvable")
    l2 = state.l**2
    diagnostics: dict = {}
    last: list = []

    def g(z):
        diagnostics["eta_evaluations"] = diagnostics.get("eta_evaluations", 0) + 1
        eta = eta_l(z, state, diagnostics=diagnostics)
        with np.errstate(over="ignore", invalid="ignore"):
            gz = (z - l2) * complex(-np.expm1(-4.0 * math.pi * eta))
        if not cmath.isfinite(gz):  # exp overflowed; an infinite g stops the secant
            return complex(math.inf)
        if last and z != last[0]:
            diagnostics["contraction"] = abs(1.0 - (gz - last[1]) / (z - last[0]))
        last[:] = z, gz, eta
        return gz

    z0 = complex(state.params.eigenvalue(state.l) if seed is None else seed)
    g0 = g(z0)
    if abs(g0) < tol:  # the seed is the root
        z, gz, steps = z0, g0, 0
    else:
        z, gz, steps = _secant(g, z0, g0, z0 - g0, tol, math.inf)
    if not abs(4.0 * math.pi * last[2]) < 1.0:
        raise ConvergenceError(f"root iteration stopped at z = {z}, where g vanishes "
                               f"but eta_l = {last[2]:.3g} is not 0")
    return _pole_result(state, z - gz, abs(gz), steps, diagnostics)


def find_determinant_root(state: SystemState, seed: complex | None = None,
                          tol: float = ROOT_TOL) -> PoleResult:
    """Same pole from the full determinant; independent of the eta_l route.

    The determinant has a Gamma_l^(-1) pole sitting at eps_l, so the root
    iteration works on the regular product Gamma_l(z) det(I - beta R_alpha);
    the default seed sits slightly off eps_l because the assembled rank sum
    itself is singular exactly at the eigenvalue.  The product has no known
    slope, so the second point is the blind z0 + 1e-7 max(1, |z0|).  The
    secant stops when both |f| and the last step are below ``tol``.
    """
    if tol < ROOT_TOL:
        raise ValueError(f"tolerance below {ROOT_TOL:g} is not resolvable")

    def f(z):
        return gamma_n(z, state.l, state.ctx, state.params) * bs_determinant(z, state)

    z0 = complex(state.params.eigenvalue(state.l) - 1e-4 - 1e-5j if seed is None else seed)
    z, fz, steps = _secant(f, z0, f(z0), z0 + 1e-7 * max(1.0, abs(z0)), tol, tol)
    return _pole_result(state, z, abs(fz), steps, {})


def mu_lowest_order(state: SystemState) -> complex:
    """Lowest-order pole shift mu_l(delta).

    4 pi xi_alpha beta { ||w_l||^2
                         + beta sum_{n != l} Gamma_n(eps_l)^(-1) (w_l, w_n)^2
                         + beta (w_l, R_SigmaSigma w_l) },
    everything at z = eps_l on the second sheet; the dressed resolvent is
    truncated at its first term beta R_SigmaSigma (consistent with the
    lowest-order analysis).  The pairings are the analytic bilinear squares,
    which is what the expansion of theta_l actually produces; for n > k they
    coincide with the modulus squares, for the open channels n <= k the
    difference feeds the imaginary part.  The two beta-terms are
    (w_l, (R_SigmaSigma + A_l) w_l), from the matrices that eta_l solves with,
    and w_l is taken from the same mode table as A_l.
    """
    params, rule, l = state.params, state.rule, state.l
    beta = params.beta
    eps_l = complex(params.eigenvalue(l))
    table = mode_table(eps_l, state)
    w_l = table[:, l - 1]
    a = assemble_free(eps_l, state) + assemble_A_l(eps_l, state, table)
    return 4.0 * math.pi * params.xi_alpha * beta * complex(
        np.sum(rule.weights * w_l * (w_l + beta * (a @ w_l))))


def im_mu_closed_form(state: SystemState) -> float:
    """Closed-form lowest order of Im mu(delta); always <= 0 for small delta.

    pi xi_alpha beta^2 sum_{n <= k} [ 4 Im(Gamma_n(eps_l)^(-1) (w_l, w_n)^2)
                                      + (int_Sigma w_l chi_n)^2 ]:
    the mode couplings of mu, with the analytic (bilinear) square of the
    pairing, whose imaginary part enters at the same order because w_n is
    complex on the second sheet for n <= k, plus the open-channel
    spectral-density limit of the dressed term.  Everything reduces to
    scalar surface integrals; no operator is assembled, keeping this route
    independent of eta_l.
    """
    params, rule, ctx, l = state.params, state.rule, state.ctx, state.l
    eps_l = complex(params.eigenvalue(l))
    open_modes = np.arange(1, ctx.k + 1)
    table = mode_vector(eps_l, np.concatenate([[l], open_modes]), rule, ctx)
    weighted = rule.weights * table[:, 0]
    # contiguous: numpy sums a product with a strided operand in another order
    pairings = weighted @ np.ascontiguousarray(table[:, 1:])
    couplings = (weighted @ chi_n(open_modes, rule.nodes[:, 2])).real
    mode_terms = (pairings**2 / gamma_n(eps_l, open_modes, ctx, params)).imag
    return math.pi * params.xi_alpha * params.beta**2 * float(
        np.sum(4.0 * mode_terms + couplings**2))


def fit_power_law(points: Sequence[tuple[float, float]]) -> tuple[float, float, float]:
    """OLS fit y = C x^p on log-log axes; returns (p, C, r_squared)."""
    if len(points) < 3:
        raise ValueError("power-law fit needs at least 3 points")
    x = np.array([p[0] for p in points], dtype=float)
    y = np.array([p[1] for p in points], dtype=float)
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("power-law fit needs positive data")
    lx, ly = np.log(x), np.log(y)
    if np.ptp(lx) == 0.0:
        raise ValueError("all abscissae coincide; exponent is undetermined")
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r_sq = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(math.exp(intercept)), r_sq


def _fit_if_positive(points) -> tuple[float, float, float]:
    """:func:`fit_power_law` of the points, or (nan, nan, nan) if a value is not positive.

    A |Re mu| or |Im mu| that underflows to 0 has no logarithm; the poles
    themselves are still reported.
    """
    if all(y > 0.0 for _, y in points):
        return fit_power_law(points)
    return (math.nan,) * 3


def sweep_delta(l: int, deltas: Sequence[float], surface: Surface, params: SpectralParams,
                order: int = DEFAULT_ORDER, tail_tol: float = TAIL_TOL,
                n_cut: int | None = None, tol: float = ROOT_TOL) -> SweepResult:
    """Locate the pole at each delta and fit |Re mu|, |Im mu| power laws.

    The states come from :func:`_delta_states`, as in :func:`pole_state`:
    a refusal at any delta comes before the pair layout and the first pole,
    and the layout is built once.  ``n_cut`` fixes the mode cutoff of every
    point; by default each point takes its own.  Every point after the first
    converged one is seeded from the previous pole by the law
    Re mu = O(delta^2), z = eps_l + mu_prev (delta / delta_prev)^2.  Points
    whose root iteration fails are recorded in ``failures`` and left out of
    the fits; fewer than MIN_SWEEP_POINTS deltas are refused before the
    first pole.  A fit whose values are not all positive is (nan, nan, nan).
    """
    deltas = list(deltas)
    if len(deltas) < MIN_SWEEP_POINTS:
        raise ValueError(f"a sweep needs at least {MIN_SWEEP_POINTS} deltas to fit, "
                         f"got {len(deltas)}")
    if any(b <= a for a, b in zip(deltas, deltas[1:])):
        raise ValueError("deltas must be strictly increasing")
    eps_l = params.eigenvalue(l)
    poles, closed, failures = [], [], []
    for st in _delta_states(surface, deltas, l, params, order, tail_tol, n_cut):
        seed = None
        if poles:
            prev = poles[-1]
            seed = eps_l + prev.mu * (st.delta / prev.delta) ** 2
        try:
            res = find_pole(st, seed=seed, tol=tol)
        except ArithmeticError as exc:
            failures.append((st.delta, str(exc)))
            continue
        poles.append(res)
        closed.append(im_mu_closed_form(st))
    if len(poles) < MIN_SWEEP_POINTS:
        raise ConvergenceError(f"only {len(poles)} poles converged; "
                               f"need >= {MIN_SWEEP_POINTS} to fit")
    fit_im = _fit_if_positive([(res.delta, abs(res.mu.imag)) for res in poles])
    fit_re = _fit_if_positive([(res.delta, abs(res.mu.real)) for res in poles])
    return SweepResult(poles=poles, fit_im=fit_im, fit_re=fit_re,
                       closed_form_im=closed, failures=failures, n_cut=st.n_cut)
