"""Generated configs against the exit-code contract.

A fixed-seed batch of random but valid-looking configs over the three
surface families runs through ``cli.main`` in-process.  Every run must end
in exit code 0, 1 or 2 without an escaping exception, and a run that exits
0 must write one row per delta whose converged poles keep the paper's
invariants: Re z inside the window J_k of eps_l, and Im z < 0 up to the
pole's own resolution.  A converged z is within |eta_l(z)| / |Gamma_l'(z)| =
residual * 4 pi |z - l^2| of the root, so the sign of a smaller Im z is not
resolved: far from the wire Im mu falls to 1e-23 while that bound is near
1e-15, and one such pole of this batch comes out at Im z = +4.6e-23.

Sizes stay below 0.8 of the distance from the wire axis to the centre (of
the sphere, for a cap), so r_min is at least a fifth of that distance and
the default mode cutoff stays below about 1400.
"""

import csv
import math
import random

from layres.cli import main
from layres.specfun import SpectralParams

N_CONFIGS = 100
SEED = 20261018


def _vec(values):
    return " ".join(f"{v:.6g}" for v in values)


def _direction(rng):
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        norm = math.sqrt(sum(c * c for c in v))
        if norm > 0.1:
            return [c / norm for c in v]


def _surface(rng, family):
    """[surface] lines: a centre near the wire or far from it, tilted planes."""
    dist = rng.uniform(0.1, 0.6) if rng.random() < 0.5 else rng.uniform(0.6, 5.0)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    center = [dist * math.cos(phi), dist * math.sin(phi), rng.uniform(0.2, math.pi - 0.2)]
    size = rng.uniform(0.05, 0.8) * min(dist, 1.5)
    lines = [f"family = {family}", f"center = {_vec(center)}"]
    if family == "disk":
        lines += [f"normal = {_vec(_direction(rng))}", f"radius = {size:.6g}"]
    elif family == "rectangle":
        u1 = _direction(rng)
        u2 = _direction(rng)
        lines += [f"direction1 = {_vec(u1)}", f"direction2 = {_vec(u2)}",
                  f"length1 = {size:.6g}", f"length2 = {rng.uniform(0.3, 1.0) * size:.6g}"]
    else:
        lines += [f"radius = {size:.6g}", f"polar_angle = {rng.uniform(0.2, 2.5):.6g}"]
    return lines


def _config(rng):
    """(mode, l, params, deltas, config text) of one generated run."""
    family = rng.choice(["disk", "rectangle", "spherical_cap"])
    mode = "sweep" if rng.random() < 0.7 else "pole"
    l = rng.randint(1, 7)
    alpha = round(rng.uniform(-0.1, 0.3), 3)
    beta = round(rng.choice([-1.0, 1.0]) * rng.uniform(0.02, 1.0), 3)
    count = 4 if mode == "sweep" else 1
    deltas = sorted({float(f"{10.0 ** rng.uniform(-5.0, 0.0):.4g}") for _ in range(count)})
    while len(deltas) < count:  # rounding merged two
        deltas = sorted(set(deltas) | {float(f"{10.0 ** rng.uniform(-5.0, 0.0):.4g}")})
    key = "deltas" if mode == "sweep" else "delta"
    text = "\n".join(
        ["[run]", f"mode = {mode}", f"l = {l}",
         "[coupling]", f"alpha = {alpha}", f"beta = {beta}",
         "[surface]", *_surface(rng, family), f"{key} = {' '.join(map(repr, deltas))}",
         "[numerics]", f"order = {rng.randint(3, 5)}", ""])
    return mode, l, SpectralParams(alpha=alpha, beta=beta), deltas, text


def _rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))


def test_generated_configs_keep_the_exit_code_contract(tmp_path):
    rng = random.Random(SEED)
    codes = []
    for i in range(N_CONFIGS):
        mode, l, params, deltas, text = _config(rng)
        cfg = tmp_path / f"{i}.cfg"
        out = tmp_path / f"{i}.csv"
        cfg.write_text(text, encoding="utf-8")
        code = main([mode, "--config", str(cfg), "--output", str(out)])
        assert code in (0, 1, 2), text
        codes.append(code)
        if code != 0:
            continue
        rows = _rows(out)
        assert len(rows) == len(deltas), text
        k = math.isqrt(math.floor(params.eigenvalue(l)))
        for row in rows:
            if row.get("status", "ok") != "ok":
                continue
            z = complex(float(row["re_z"]), float(row["im_z"]))
            resolution = float(row["residual"]) * 4.0 * math.pi * abs(z - l * l)
            assert z.imag < resolution and k * k < z.real < (k + 1) ** 2, (text, row)
    # the batch reaches both poles and config refusals, not one outcome only
    assert codes.count(0) >= 20 and codes.count(2) >= 5, codes
