"""Generated configs against the exit-code contract.

A fixed-seed batch of random but valid-looking configs over the three
surface families runs through ``cli.main`` in-process.  Every run must end
in exit code 0, 1 or 2 without an escaping exception, and a run that exits
0 must write one row per delta whose converged poles keep the paper's
invariants: Re z inside the window J_k of eps_l, and Im z < 0 up to the
pole's own resolution.  The residual of a pole is |z - F(z)| at the last
point of its search (``resonance.find_pole``), a distance in z, so the sign
of a smaller Im z is not resolved: far from the wire Im mu falls to 1e-24
while the residual is near 1e-16.  The fixed sweep ``FAR_DISK`` has such a pole: Im z = -1.0e-24
beside a residual of 3.4e-16 at delta = 0.000329, where its search stops on the rounding
floor of |g|.

``l`` is drawn from 2-7: eps_1 = xi_alpha + 1 < 1 for every alpha, so an
l = 1 config is always the same discrete-eigenvalue refusal, and the fixed
config ``DISCRETE_L1`` keeps one of them.  The fixed configs run after the
generated ones.

Sizes stay below 0.8 of the distance from the wire axis to the centre (of
the sphere, for a cap), so r_min is at least a fifth of that distance and
the default mode cutoff stays below about 1400.

Larger batches, at other seeds or quadrature orders, run outside the test
suite with the same per-run checks:

    python tests/test_generated_configs.py --seed 1 --count 100 --orders 6 8

It prints the wall time and the count of each exit code, and stops at the
first run that breaks the contract.
"""

import argparse
import csv
import math
import random
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

if __name__ == "__main__":  # run as a script: import layres from this checkout
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from layres.cli import main, parse_config
from layres.resonance import sweep_delta
from layres.specfun import SpectralParams

N_CONFIGS = 100
SEED = 20261018
ORDERS = (3, 5)  # quadrature orders are drawn from this closed range

#: (mode, l, alpha, beta, deltas, [surface] lines, order) of the fixed configs
FAR_DISK = ("sweep", 2, -0.051, 0.421, [0.0001547, 0.0003289, 0.0004937, 0.06626],
            ["family = disk", "center = -2.34938 4.22715 2.41066",
             "normal = 0.251183 -0.69099 0.67782", "radius = 0.404019"], 3)
DISCRETE_L1 = ("sweep", 1, 0.245, -0.836, [0.0001908, 0.01223, 0.2399, 0.8122],
               ["family = disk", "center = -3.81444 -0.192709 0.334611",
                "normal = 0.472865 0.480669 0.738482", "radius = 1.04767"], 3)


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


def _text(mode, l, alpha, beta, deltas, surface, order):
    """(mode, l, params, deltas, config text) of one run."""
    key = "deltas" if mode == "sweep" else "delta"
    text = "\n".join(
        ["[run]", f"mode = {mode}", f"l = {l}",
         "[coupling]", f"alpha = {alpha}", f"beta = {beta}",
         "[surface]", *surface, f"{key} = {' '.join(map(repr, deltas))}",
         "[numerics]", f"order = {order}", ""])
    return mode, l, SpectralParams(alpha=alpha, beta=beta), deltas, text


def _config(rng, orders=ORDERS):
    """(mode, l, params, deltas, config text) of one generated run."""
    family = rng.choice(["disk", "rectangle", "spherical_cap"])
    mode = "sweep" if rng.random() < 0.7 else "pole"
    l = rng.randint(2, 7)
    alpha = round(rng.uniform(-0.1, 0.3), 3)
    beta = round(rng.choice([-1.0, 1.0]) * rng.uniform(0.02, 1.0), 3)
    count = 4 if mode == "sweep" else 1
    deltas = sorted({float(f"{10.0 ** rng.uniform(-5.0, 0.0):.4g}") for _ in range(count)})
    while len(deltas) < count:  # rounding merged two
        deltas = sorted(set(deltas) | {float(f"{10.0 ** rng.uniform(-5.0, 0.0):.4g}")})
    surface = _surface(rng, family)
    return _text(mode, l, alpha, beta, deltas, surface, rng.randint(*orders))


def _rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))


def _run_batch(seed, count, orders, workdir):
    """Exit codes of ``count`` generated runs and the fixed ones, each held to the contract."""
    rng = random.Random(seed)
    runs = [_config(rng, orders) for _ in range(count)]
    runs += [_text(*fixed) for fixed in (FAR_DISK, DISCRETE_L1)]
    codes = []
    for i, (mode, l, params, deltas, text) in enumerate(runs):
        cfg = workdir / f"{i}.cfg"
        out = workdir / f"{i}.csv"
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
            assert z.imag < float(row["residual"]) and k * k < z.real < (k + 1) ** 2, (text, row)
    return codes


def test_generated_configs_keep_the_exit_code_contract(tmp_path):
    codes = _run_batch(SEED, N_CONFIGS, ORDERS, tmp_path)
    # the batch reaches both poles and config refusals, not one outcome only
    assert codes.count(0) >= 20 and codes.count(2) >= 5, codes


def test_unresolved_poles_stop_on_the_floor():
    # FAR_DISK's Im z is -1e-24 at its first three deltas and -1.7e-15 at
    # the last: no error within reach of |g| is small against either, so
    # each search ends at the rounding floor of g, says so, and reports that
    # floor as its error; where it is above |Im z| the sign is not resolved
    _, l, params, deltas, text = _text(*FAR_DISK)
    config = parse_config(text)
    sweep = sweep_delta(l, deltas, config.surface, params, order=config.order)
    assert not sweep.failures
    assert [res.diagnostics["stop"] for res in sweep.poles] == ["floor"] * 4
    for res in sweep.poles[:3]:
        assert abs(res.z.imag) < 1e-23 < res.diagnostics["root_error"] == res.residual


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Run a batch of generated configs.")
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument("--count", type=int, default=N_CONFIGS)
    parser.add_argument("--orders", type=int, nargs=2, default=ORDERS, metavar=("LO", "HI"),
                        help="closed range of the quadrature orders drawn")
    args = parser.parse_args()
    start = time.monotonic()
    with tempfile.TemporaryDirectory() as tmp:
        codes = _run_batch(args.seed, args.count, args.orders, Path(tmp))
    counts = ", ".join(f"exit {c}: {n}" for c, n in sorted(Counter(codes).items()))
    print(f"seed {args.seed}, {args.count} configs, orders {args.orders[0]}-{args.orders[1]}, "
          f"and 2 fixed: "
          f"{counts} in {time.monotonic() - start:.1f} s")
