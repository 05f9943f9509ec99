"""Spans around the public calls of each layres module, recorded from outside.

Each wrapped call appends one span ``[name, start, end, parent, work]`` to
an in-memory list: ``parent`` is the index of the enclosing span (-1 at the
top) and ``work`` a per-call count (point pairs for ``EwaldGreen.pairs``,
Newton iterations for ``find_pole``, 1 otherwise).  A name is patched where
its caller looks it up, e.g. ``cli.find_pole`` or ``resonance.eta_l``, so
the program itself is not edited.  The list is written out once, at exit.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


def _pairs_count(args, result):
    return int(result.size)


def _iterations(args, result):
    return int(result.iterations)


def targets(cli, resonance, bs_operator, geometry, greens, specfun):
    """(span name, owner, attribute, work counter) for every wrapped call."""
    ewald = greens.EwaldGreen
    return [
        ("cli.parse_config", cli, "parse_config", None),
        ("cli.run", cli, "run", None),
        ("resonance.pole_state", cli, "pole_state", None),
        ("resonance.find_pole", cli, "find_pole", _iterations),
        ("resonance.im_mu_closed_form", cli, "im_mu_closed_form", None),
        ("resonance.fit_power_law", cli, "fit_power_law", None),
        ("greens.calibrate_tail_constant", cli, "calibrate_tail_constant", None),
        ("geometry.scale_surface", resonance, "scale_surface", None),
        ("geometry.build_quadrature", resonance, "build_quadrature", None),
        ("geometry.r_min", geometry, "r_min", None),
        ("bs_operator.eta_l", resonance, "eta_l", None),
        ("bs_operator.mode_vector", resonance, "mode_vector", None),
        ("bs_operator.mode_vector", bs_operator, "mode_vector", None),
        ("bs_operator.singular_part_matrix", bs_operator, "singular_part_matrix", None),
        ("bs_operator.assemble_free", bs_operator, "assemble_free", None),
        ("bs_operator.assemble_A_l", bs_operator, "assemble_A_l", None),
        ("specfun.gamma_n", resonance, "gamma_n", None),
        ("specfun.gamma_n", bs_operator, "gamma_n", None),
        ("specfun.z0_kernel", specfun, "z0_kernel", None),
        ("greens.EwaldGreen.init", ewald, "__init__", None),
        ("greens.EwaldGreen.pairs", ewald, "pairs", _pairs_count),
        ("greens.EwaldGreen.regularized_diag", ewald, "regularized_diag", None),
    ]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, owner, attr, work=None):
        fn = getattr(owner, attr)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else -1, 1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if work is not None:
                    span[4] = work(args, result)
                return result
            finally:
                span[2] = clock()
                stack.pop()

        setattr(owner, attr, wrapper)

    def install(self, modules):
        for name, owner, attr, work in targets(**modules):
            self.wrap(name, owner, attr, work)


def _has_ancestor(spans, span, name) -> bool:
    while span[3] >= 0:
        span = spans[span[3]]
        if span[0] == name:
            return True
    return False


def layer_metrics(spans) -> dict:
    """Per-layer metrics {name: (value, unit)} from one traced run's spans."""
    calls = defaultdict(int)
    work = defaultdict(int)
    total = defaultdict(float)
    child = defaultdict(float)  # time in direct children, per parent name
    for name, start, end, parent, n in spans:
        calls[name] += 1
        work[name] += n
        total[name] += end - start
        if parent >= 0:
            child[spans[parent][0]] += end - start

    def self_s(name):
        return total[name] - child[name]

    # the first eta_l of a state builds the singular matrices lazily; keep
    # that build out of the per-call cost of eta_l
    eta_singular = sum(s[2] - s[1] for s in spans
                       if s[0] == "bs_operator.singular_part_matrix"
                       and _has_ancestor(spans, s, "bs_operator.eta_l"))
    runs = [s for s in spans if s[0] == "cli.run"]
    run_s = sum(s[2] - s[1] for s in runs)
    poles = calls["resonance.find_pole"]
    eta_calls = calls["bs_operator.eta_l"]
    return {
        "bs_operator.singular_part_matrix.calls":
            (calls["bs_operator.singular_part_matrix"], "count"),
        "bs_operator.singular_part_matrix.s": (total["bs_operator.singular_part_matrix"], "s"),
        "greens.EwaldGreen.pairs.s": (total["greens.EwaldGreen.pairs"], "s"),
        "greens.EwaldGreen.pairs.count": (work["greens.EwaldGreen.pairs"], "count"),
        "greens.EwaldGreen.init.s": (total["greens.EwaldGreen.init"], "s"),
        "greens.EwaldGreen.regularized_diag.s":
            (total["greens.EwaldGreen.regularized_diag"], "s"),
        "bs_operator.assemble_free.self_s": (self_s("bs_operator.assemble_free"), "s"),
        "bs_operator.assemble_A_l.s": (total["bs_operator.assemble_A_l"], "s"),
        "bs_operator.mode_vector.calls": (calls["bs_operator.mode_vector"], "count"),
        "specfun.gamma_n.calls": (calls["specfun.gamma_n"], "count"),
        "specfun.z0_kernel.calls": (calls["specfun.z0_kernel"], "count"),
        "specfun.z0_kernel.s": (total["specfun.z0_kernel"], "s"),
        "bs_operator.eta_l.calls": (eta_calls, "count"),
        "bs_operator.eta_l.ms_per_call":
            (1e3 * (total["bs_operator.eta_l"] - eta_singular) / max(eta_calls, 1), "ms"),
        "bs_operator.eta_l.self_s": (self_s("bs_operator.eta_l"), "s"),
        "resonance.poles": (poles, "count"),
        "resonance.eta_per_pole": (eta_calls / max(poles, 1), "calls/pole"),
        "resonance.iterations_per_pole":
            (work["resonance.find_pole"] / max(poles, 1), "iter/pole"),
        "resonance.find_pole.self_s": (self_s("resonance.find_pole"), "s"),
        "resonance.pole_state.s": (total["resonance.pole_state"], "s"),
        "resonance.im_mu_closed_form.calls":
            (calls["resonance.im_mu_closed_form"], "count"),
        "geometry.scale_surface.s": (total["geometry.scale_surface"], "s"),
        "geometry.build_quadrature.s": (total["geometry.build_quadrature"], "s"),
        "geometry.r_min.s": (total["geometry.r_min"], "s"),
        "greens.calibrate_tail_constant.s": (total["greens.calibrate_tail_constant"], "s"),
        "cli.parse_config.s": (total["cli.parse_config"], "s"),
        "cli.run.self_s": (self_s("cli.run"), "s"),
        "trace.coverage": (child["cli.run"] / run_s if run_s else 0.0, "fraction"),
        "trace.spans": (len(spans), "count"),
    }
