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
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .bs_operator import SingularMatrices, SystemState, bs_determinant, eta_l, \
    mode_vector
from .geometry import Surface, build_quadrature, scale_surface
from .greens import chi_n
from .specfun import PSI_ONE, SheetContext, SpectralParams, gamma_n, second_sheet

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
]


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

    @property
    def points(self) -> list:
        """(delta, mu) of every converged pole."""
        return [(res.delta, res.mu) for res in self.poles]


def window_index(value: float) -> int:
    """k with value in J_k = (k^2, (k+1)^2); rejects threshold collisions."""
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


def pole_state(surface: Surface, delta: float, l: int, params: SpectralParams,
               order: int = 16, tail_tol: float = 1e-12,
               n_cut: int | None = None,
               singular_base: SingularMatrices | None = None) -> SystemState:
    """System state on the scaled surface, on the second sheet of eps_l's window.

    The product-integration matrices are those of the order-``order`` rule
    on the unscaled ``surface``, scaled to delta (see SingularMatrices);
    pass ``singular_base`` to share one build between several deltas.
    """
    eps = params.eigenvalue(l)
    if eps < 1.0:
        raise ValueError(f"eps_{l} = {eps} is a discrete eigenvalue, not embedded")
    k = window_index(eps)
    if singular_base is None:
        singular_base = SingularMatrices(build_quadrature(surface, order))
    elif singular_base.rule.surface is not surface or singular_base.rule.order != order:
        raise ValueError("singular_base belongs to another surface or order")
    if delta == 1.0:
        rule = singular_base.rule
    else:
        rule = build_quadrature(scale_surface(surface, delta), order)
    return SystemState(params, rule, second_sheet(k), tail_tol=tail_tol, n_cut=n_cut,
                       singular_base=singular_base, delta=delta)


def _secant(f: Callable[[complex], complex], seed: complex, tol: float,
            max_iter: int) -> tuple[complex, float, int]:
    """Secant iteration on f from (seed, seed + 1e-7 max(1, |seed|)).

    One evaluation per step; stops when both |f| at the new point and the
    step that reached it are below ``tol``, and returns (z, |f(z)|, steps).
    """
    z0 = complex(seed)
    z1 = z0 + 1e-7 * max(1.0, abs(z0))
    f0, f1 = f(z0), f(z1)
    for it in range(1, max_iter + 1):
        if f1 == f0:
            break
        step = f1 * (z1 - z0) / (f1 - f0)
        if not cmath.isfinite(step):
            break
        z0, f0 = z1, f1
        z1 = z1 - step
        f1 = f(z1)
        if abs(f1) < tol and abs(step) < tol:
            return z1, abs(f1), it
    raise ConvergenceError(f"root iteration failed near z = {seed}")


def find_pole(l: int, delta: float, state: SystemState, seed: complex | None = None,
              tol: float = 1e-12, max_iter: int = 50) -> PoleResult:
    """Second-sheet pole z_l(delta) as the root of eta_l, secant from eps_l.

    ``diagnostics`` of the result describe the whole search: the number of
    eta_l evaluations and the worst condition number of each guarded solve.
    """
    if tol < 1e-12:
        raise ValueError("tolerance below 1e-12 is not resolvable")
    params = state.params
    eps_l = params.eigenvalue(l)
    k = window_index(eps_l)
    diagnostics: dict = {"n_cut": state.n_cut, "n_nodes": state.rule.n_nodes,
                         "eta_evaluations": 0}

    def f(z):
        diagnostics["eta_evaluations"] += 1
        return eta_l(z, l, state, diagnostics=diagnostics)

    z, residual, iterations = _secant(f, eps_l if seed is None else seed, tol, max_iter)
    if not (k**2 < z.real < (k + 1) ** 2):
        raise ConvergenceError(f"root {z} escaped the window J_{k}")
    return PoleResult(z=z, mu=z - eps_l, l=l, k=k, delta=delta, residual=residual,
                      iterations=iterations, diagnostics=diagnostics)


def find_determinant_root(l: int, delta: float, state: SystemState,
                          seed: complex | None = None, tol: float = 1e-12,
                          max_iter: int = 50) -> PoleResult:
    """Same pole from the full determinant; independent of the eta_l route.

    The determinant has a Gamma_l^(-1) pole sitting at eps_l, so the root
    iteration works on the regular product Gamma_l(z) det(I - beta R_alpha);
    the default seed sits slightly off eps_l because the assembled rank sum
    itself is singular exactly at the eigenvalue.
    """
    if tol < 1e-12:
        raise ValueError("tolerance below 1e-12 is not resolvable")
    params = state.params
    eps_l = params.eigenvalue(l)
    k = window_index(eps_l)
    diagnostics: dict = {"n_cut": state.n_cut, "n_nodes": state.rule.n_nodes}

    def f(z):
        return gamma_n(z, l, state.ctx, params) * bs_determinant(z, state)

    if seed is None:
        seed = eps_l - 1e-4 - 1e-5j
    z, residual, iterations = _secant(f, seed, tol, max_iter)
    if not (k**2 < z.real < (k + 1) ** 2):
        raise ConvergenceError(f"root {z} escaped the window J_{k}")
    return PoleResult(z=z, mu=z - eps_l, l=l, k=k, delta=delta, residual=residual,
                      iterations=iterations, diagnostics=diagnostics)


def mu_lowest_order(l: int, delta: float, state: SystemState) -> complex:
    """Lowest-order pole shift mu_l(delta).

    4 pi xi_alpha beta { ||w_l||^2
                         + beta sum_{n != l} Gamma_n(eps_l)^(-1) (w_l, w_n)^2
                         + beta (w_l, R_SigmaSigma w_l) },
    everything at z = eps_l on the second sheet; the dressed resolvent is
    truncated at its first term beta R_SigmaSigma (consistent with the
    lowest-order analysis).  The pairings are the analytic bilinear squares,
    which is what the expansion of theta_l actually produces; for n > k they
    coincide with the modulus squares, for the open channels n <= k the
    difference feeds the imaginary part.
    """
    params, rule, ctx = state.params, state.rule, state.ctx
    beta = params.beta
    eps_l = complex(params.eigenvalue(l))
    w = rule.weights
    w_l = mode_vector(eps_l, l, rule, ctx)
    norm_sq = complex(np.sum(w * w_l * w_l))
    modes = np.arange(1, state.n_cut + 1)
    modes = modes[modes != l]
    pairs = (w * w_l) @ mode_vector(eps_l, modes, rule, ctx)
    gammas = np.array([gamma_n(eps_l, n, ctx, params) for n in modes], dtype=complex)
    cross = complex(np.sum(pairs**2 / gammas))
    free = state.free_op(eps_l)
    dressed = complex(np.sum(w * w_l * free.apply(w_l)))
    return 4.0 * math.pi * params.xi_alpha * beta * (
        norm_sq + beta * cross + beta * dressed)


def _iota(l_eps: float, n: int, alpha: float) -> float:
    return (2.0 * math.pi * alpha + math.log(math.sqrt(l_eps - n**2) / 2.0)
            - PSI_ONE) / (2.0 * math.pi)


def im_mu_closed_form(l: int, delta: float, state: SystemState) -> float:
    """Closed-form lowest order of Im mu(delta); always <= 0 for small delta.

    pi xi_alpha beta^2 sum_{n <= k} ( [8 iota Re Im + ((Re)^2 - (Im)^2)]
                                        of (w_l, w_n) over (iota_{l,n}^2 + 1/16)
                                      + (int_Sigma w_l chi_n)^2 ),
    i.e. Im 4 pi xi beta^2 [ Gamma_n(eps_l)^(-1) (w_l, w_n)^2 ] for the mode
    couplings, written through Gamma_n(eps_l) = iota_{l,n} - i/4 -- with the
    analytic (bilinear) square of the pairing, whose imaginary part enters
    at the same order because w_n is complex on the second sheet for
    n <= k -- plus the open-channel spectral-density limit of the dressed
    term.  Everything reduces to scalar surface integrals; no operator is
    assembled, keeping this route independent of eta_l.
    """
    params, rule, ctx = state.params, state.rule, state.ctx
    eps_l = params.eigenvalue(l)
    k = window_index(eps_l)
    w = rule.weights
    w_l = mode_vector(complex(eps_l), l, rule, ctx)
    open_modes = np.arange(1, k + 1)
    w_open = mode_vector(complex(eps_l), open_modes, rule, ctx)
    chi_open = chi_n(open_modes, rule.nodes[:, 2])
    total = 0.0
    for n in range(1, k + 1):
        pair = complex(np.sum(w * w_l * w_open[:, n - 1]))
        a, b = pair.real, pair.imag
        iota = _iota(eps_l, n, params.alpha)
        coupling = float(np.real(np.sum(w * w_l * chi_open[:, n - 1])))
        total += (8.0 * iota * a * b + (a * a - b * b)) / (iota**2 + 0.0625)
        total += coupling**2
    return math.pi * params.xi_alpha * params.beta**2 * total


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


def sweep_delta(l: int, deltas: Sequence[float], state: SystemState,
                tol: float = 1e-12, n_cut: int | None = None) -> SweepResult:
    """Locate the pole at each delta and fit |Re mu|, |Im mu| power laws.

    ``state`` is the state on the unscaled base surface (delta = 1); it
    carries the coupling parameters, the quadrature order and the
    product-integration matrices, which are built once and scaled to every
    point.  ``n_cut`` fixes the mode cutoff of every point; by default each
    point takes its own.  Every point after the first converged one is
    seeded from the previous pole by the law Re mu = O(delta^2),
    z = eps_l + mu_prev (delta / delta_prev)^2.  Points whose root iteration
    fails are recorded in ``failures`` and left out of the fits.
    """
    deltas = list(deltas)
    if any(b <= a for a, b in zip(deltas, deltas[1:])):
        raise ValueError("deltas must be strictly increasing")
    surface = state.rule.surface
    if surface is None:
        raise ValueError("sweeping needs a parametrized base surface")
    if state.delta != 1.0:
        raise ValueError("sweeping starts from the state on the unscaled surface")
    eps_l = state.params.eigenvalue(l)
    poles, closed, failures = [], [], []
    for d in deltas:
        st = pole_state(surface, d, l, state.params, order=state.rule.order,
                        tail_tol=state.tail_tol, n_cut=n_cut,
                        singular_base=state.singular_base)
        seed = None
        if poles:
            prev = poles[-1]
            seed = eps_l + prev.mu * (d / prev.delta) ** 2
        try:
            res = find_pole(l, d, st, seed=seed, tol=tol)
        except ArithmeticError as exc:
            failures.append((d, str(exc)))
            continue
        poles.append(res)
        closed.append(im_mu_closed_form(l, d, st))
    if len(poles) < 4:
        raise ConvergenceError(f"only {len(poles)} poles converged; need >= 4 to fit")
    fit_im = fit_power_law([(res.delta, abs(res.mu.imag)) for res in poles])
    fit_re = fit_power_law([(res.delta, abs(res.mu.real)) for res in poles])
    return SweepResult(poles=poles, fit_im=fit_im, fit_re=fit_re,
                       closed_form_im=closed, failures=failures, n_cut=st.n_cut)
