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

from .bs_operator import SystemState, assemble_A_l, assemble_free, \
    bs_determinant, check_pair_tables, eta_l, mode_cutoff, mode_table, mode_vector, \
    pair_layout, pair_nodes
from .geometry import Surface, build_quadrature, scale_surface
from .greens import EwaldSplit, chi_n
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
    "ROOT_REL_TOL",
    "DEFAULT_ORDER",
]

#: fewest converged poles a sweep fits its power laws to
MIN_SWEEP_POINTS = 4
#: the root gate of every search: a search stops only where |f| < ROOT_TOL
ROOT_TOL = 1e-12
#: error of a pole, relative to its |Im mu|, at which its search stops (find_pole)
ROOT_REL_TOL = 2e-9
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
                  params: SpectralParams, order: int) -> Iterator[SystemState]:
    """States of eps_l at each of ``deltas``, on the second sheet of its window.

    Everything the arguments decide is refused before any n x n array
    exists: a discrete eps_l and then an order whose pair tables are too
    large (:func:`check_pair_tables`) before any rule, then, in delta order,
    each delta-copy's axis refusal and :func:`mode_cutoff`.  The r_min of
    the copies come from one :func:`scale_surface` call, which searches
    every delta at once and checks nothing else of a copy (the homothety
    keeps the rest of the surface check), and refuses a copy only when it
    is taken.  The order-``order`` rule on ``surface`` is built once, and
    each copy's cutoff is taken on it scaled (:meth:`QuadratureRule.scaled`).
    Only then is the pair layout of the unscaled rule built, once, and a
    copy whose widest pair exceeds the Ewald spectral radius refused
    (:meth:`EwaldSplit.for_separation` on :func:`pair_nodes`).  Then each
    state is made with its :meth:`PairLayout.scaled` copy, which carries the
    copy's rule, one at a time, so that each state and its Ewald tables are
    freed with its pole.
    """
    eps_l = params.eigenvalue(l)
    ctx = second_sheet(window_index(eps_l))
    check_pair_tables(order)
    base_rule = build_quadrature(surface, order)
    copies = []
    for d, rmin in zip(deltas, scale_surface(surface, deltas)):
        cut = mode_cutoff(base_rule.scaled(d, rmin), ctx, eps_l)
        copies.append((d, rmin, cut))
    layout = pair_layout(base_rule)
    for d, rmin, _ in copies:  # a copy wider than the Ewald spectral radius
        EwaldSplit.for_separation(pair_nodes(layout, base_rule.scaled(d, rmin))[2], ctx)
    for d, rmin, cut in copies:
        yield SystemState(params, layout.scaled(d, rmin), ctx, l, n_cut=cut)


def pole_state(surface: Surface, delta: float, l: int, params: SpectralParams,
               order: int = DEFAULT_ORDER) -> SystemState:
    """System state on the scaled surface, on the second sheet of eps_l's window.

    The one state of :func:`_delta_states` at ``delta``: its refusals come
    before the pair layout, which is built on the order-``order`` rule of
    the unscaled ``surface`` and scaled to delta.
    """
    return next(_delta_states(surface, [delta], l, params, order))


def _secant(f: Callable[[complex], complex], z0: complex, f0: complex, z1: complex,
            stop: Callable[[complex, complex, complex, complex], object]
            ) -> tuple[complex, complex, int, object]:
    """Secant iteration on f from z0, where f is f0, and z1.

    One evaluation per point after z0.  Stops at the first point z after z0
    for which ``stop(z_before, f(z_before), z, f(z))`` is true, and returns
    (z, f(z), secant steps taken after the two start points, that value of
    ``stop``).  More than _MAX_ITER steps are refused.
    """
    seed = z0
    if not cmath.isfinite(z1):
        raise _stalled(seed, 0, z0, f0)
    f1 = f(z1)
    steps = 0
    while not (reason := stop(z0, f0, z1, f1)):
        step = f1 * (z1 - z0) / (f1 - f0) if f1 != f0 else math.inf
        if steps == _MAX_ITER or not cmath.isfinite(step):
            raise _stalled(seed, steps, z1, f1)
        z0, f0 = z1, f1
        z1 = z1 - step
        f1 = f(z1)
        steps += 1
    return z1, f1, steps, reason


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
    return PoleResult(z=z, mu=z - eps_l, l=state.l, k=k, delta=state.rule.delta,
                      residual=residual, iterations=iterations, diagnostics=diagnostics)


def find_pole(state: SystemState, seed: complex | None = None) -> PoleResult:
    """Second-sheet pole z_l(delta) at the l and delta of ``state``, from eps_l.

    For l > k, Gamma_l(z) = (2 pi alpha - psi(1) + ln(sqrt(z - l^2) / 2i)) / 2 pi
    inverts exactly, so eta_l = Gamma_l - beta theta_l = 0 is the fixed point
    z = F(z) = l^2 + (z - l^2) exp(-4 pi eta_l(z)).  F contracts by
    |4 pi beta (z - l^2) theta_l'|, small since theta_l is O(delta^2).  The
    secant runs on g(z) = z - F(z) = (z - l^2)(1 - exp(-4 pi eta_l(z))) from
    the seed and F(seed), and returns F(z) = z - g at the point z where it
    stops, at no further eta_l.  The contraction of F between those first
    two points z0 and z1, q = |F(z1) - F(z0)| / |z1 - z0| =
    |1 - (g1 - g0) / (z1 - z0)| (later points sit at the rounding floor of
    g, where a slope is noise), puts F(z) within q |g| / (1 - q) of the
    fixed point; q is nan where F(z0) rounds to z0, and the estimate is
    infinite unless q < 1.  The search stops at the first point with
    |g| < ROOT_TOL that meets one of three criteria:

    - ``"relative"``: that estimate is at most ROOT_REL_TOL |Im(F(z) - eps_l)|,
      so it is small against the width Im mu;
    - ``"floor"``: |g| is at its rounding floor: it is above half the |g|
      before, or the estimate is below the double epsilon times |z - l^2|,
      or z rounds to l^2 (|z - l^2| <= 4 eps l^2), where g vanishes whatever
      eta_l is and shrinks with every step;
    - ``"exact"``: g is 0.  Only this one stops at the seed, where q is not
      known.

    The residual |g| is the distance in z from that point to F of it.  A
    point with |4 pi eta_l| >= 1 is refused: g vanishes there only because
    z = l^2 or exp(-4 pi eta_l) = 1.
    ``diagnostics`` of the result describe the whole search: the number of
    eta_l evaluations, the worst condition number of the guarded solve,
    ``contraction`` q, ``stop`` the criterion and ``root_error``, the
    estimate q |g| / (1 - q) at a relative stop and 0 at an exact one.  At
    the floor it is |g| itself: a q measured where g is rounding noise is
    noise too, so the pole is known to the floor the search reached.
    """
    l2 = state.l**2
    eps_l = state.params.eigenvalue(state.l)
    diagnostics: dict = {}
    last_eta = [0j]

    def g(z):
        diagnostics["eta_evaluations"] = diagnostics.get("eta_evaluations", 0) + 1
        eta = eta_l(z, state, diagnostics=diagnostics)
        with np.errstate(over="ignore", invalid="ignore"):
            gz = (z - l2) * complex(-np.expm1(-4.0 * math.pi * eta))
        last_eta[0] = eta
        if not cmath.isfinite(gz):  # exp overflowed; an infinite g stops the secant
            return complex(math.inf)
        return gz

    def root_error(gz):
        q = diagnostics["contraction"]
        return q * abs(gz) / (1.0 - q) if q < 1.0 else math.inf

    def stop(z0, g0, z, gz):
        """The criterion that ends the search at z, the point after z0, or None."""
        if "contraction" not in diagnostics:  # z0 is the seed and z = F(z0)
            finite = z != z0 and cmath.isfinite(gz)
            diagnostics["contraction"] = abs(1.0 - (gz - g0) / (z - z0)) if finite else math.nan
        if gz == 0:
            return "exact"
        if not abs(gz) < ROOT_TOL:
            return None
        error = root_error(gz)
        if error <= ROOT_REL_TOL * abs((z - gz - eps_l).imag):
            return "relative"
        eps = np.finfo(float).eps
        if abs(gz) > 0.5 * abs(g0) or error < eps * abs(z - l2) or abs(z - l2) <= 4 * eps * l2:
            return "floor"
        return None

    z0 = complex(eps_l if seed is None else seed)
    g0 = g(z0)
    if g0 == 0:  # the seed is the root
        z, gz, steps, diagnostics["stop"] = z0, g0, 0, "exact"
    else:
        z, gz, steps, diagnostics["stop"] = _secant(g, z0, g0, z0 - g0, stop)
    # at an exact stop |g| is 0
    diagnostics["root_error"] = root_error(gz) if diagnostics["stop"] == "relative" else abs(gz)
    if not abs(4.0 * math.pi * last_eta[0]) < 1.0:
        raise ConvergenceError(f"root iteration stopped at z = {z}, where g vanishes "
                               f"but eta_l = {last_eta[0]:.3g} is not 0")
    return _pole_result(state, z - gz, abs(gz), steps, diagnostics)


def find_determinant_root(state: SystemState, seed: complex | None = None) -> PoleResult:
    """Same pole from the full determinant; independent of the eta_l route.

    The determinant has a Gamma_l^(-1) pole sitting at eps_l, so the root
    iteration works on the regular product Gamma_l(z) det(I - beta R_alpha);
    the default seed sits slightly off eps_l because the assembled rank sum
    itself is singular exactly at the eigenvalue.  The product has no known
    slope, so the second point is the blind z0 + 1e-7 max(1, |z0|).  The
    secant stops when both |f| and the last step are below ROOT_TOL.
    """

    def f(z):
        return gamma_n(z, state.l, state.ctx, state.params) * bs_determinant(z, state)

    def stop(z0, f0, z, fz):
        return abs(fz) < ROOT_TOL and abs(z - z0) <= ROOT_TOL

    z0 = complex(state.params.eigenvalue(state.l) - 1e-4 - 1e-5j if seed is None else seed)
    z, fz, steps, _ = _secant(f, z0, f(z0), z0 + 1e-7 * max(1.0, abs(z0)), stop)
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


def _predicted_pole(eps_l: float, poles: Sequence[PoleResult], delta: float) -> complex:
    """eps_l + delta^2 P(delta), P through mu / delta^2 of the last three poles, cut short.

    mu = c2 delta^2 + c3 delta^3 + c4 delta^4: Re mu is O(delta^2), and the
    delta^3 term is the 1/(4 pi r) self-interaction of R_SigmaSigma over a
    surface of area delta^2.  P is summed in Newton's form from the last
    pole back, f[d1] + f[d1, d2](delta - d1) + f[d1, d2, d3](delta - d1)(delta - d2)
    with f = mu / delta^2, and a term is taken only while it is smaller than
    the one before.  So one pole gives mu_1 (delta / d1)^2, and the powers
    (2, 3) and (2, 3, 4) come in only where the series converges: the mu of
    poles at the rounding floor of their search is noise that the higher
    terms amplify by the distance to delta over the spread of the poles.
    The predictor of a predictor-corrector continuation (Allgower & Georg,
    Introduction to Numerical Continuation Methods, ch. 2), whose corrector
    is :func:`find_pole`.
    """
    last = poles[:-4:-1]
    nodes = [res.delta for res in last]
    coefficients = [res.mu / res.delta**2 for res in last]
    for order in range(1, len(nodes)):  # divided differences, in place
        for i in range(len(nodes) - 1, order - 1, -1):
            coefficients[i] = ((coefficients[i] - coefficients[i - 1])
                               / (nodes[i] - nodes[i - order]))
    total, before, basis = 0.0, math.inf, 1.0
    for coefficient, node in zip(coefficients, nodes):
        term = coefficient * basis
        if not abs(term) < before:
            break
        total, before, basis = total + term, abs(term), basis * (delta - node)
    return eps_l + delta**2 * total


def sweep_delta(l: int, deltas: Sequence[float], surface: Surface, params: SpectralParams,
                order: int = DEFAULT_ORDER) -> SweepResult:
    """Locate the pole at each delta and fit |Re mu|, |Im mu| power laws.

    The states come from :func:`_delta_states`, as in :func:`pole_state`:
    a refusal at any delta comes before the pair layout and the first pole,
    and the layout is built once.  Each point takes its own mode cutoff.
    Every point after the first converged one is seeded from the poles
    before it (:func:`_predicted_pole`), the first from eps_l.  Points whose
    root iteration fails are recorded in ``failures`` and left out of the
    fits; fewer than MIN_SWEEP_POINTS deltas are refused before the pair
    layout.  A fit whose values are not all positive is (nan, nan, nan).
    """
    deltas = list(deltas)
    if len(deltas) < MIN_SWEEP_POINTS:
        raise ValueError(f"a sweep needs at least {MIN_SWEEP_POINTS} deltas to fit, "
                         f"got {len(deltas)}")
    if any(b <= a for a, b in zip(deltas, deltas[1:])):
        raise ValueError("deltas must be strictly increasing")
    eps_l = params.eigenvalue(l)
    poles, closed, failures = [], [], []
    for st in _delta_states(surface, deltas, l, params, order):
        seed = _predicted_pole(eps_l, poles, st.rule.delta) if poles else None
        try:
            res = find_pole(st, seed=seed)
        except ArithmeticError as exc:
            failures.append((st.rule.delta, str(exc)))
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
