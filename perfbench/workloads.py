"""Benchmark workloads: layres configs made from a seed, and the pole gate.

Seed 0 gives each workload's reference config exactly.  Any other seed
jitters the surface center by at most CENTER_JITTER in each coordinate and
the surface size (disk radius, rectangle sides) by at most SIZE_JITTER
relative, so a claim can be re-checked on inputs it was not tuned on.  Poles
of seed 0 are compared with ``reference.json``; every seed is held to the
invariants Im z < 0 and Re z in J_k = (k^2, (k+1)^2).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

#: largest absolute shift of each center coordinate on seeds other than 0
CENTER_JITTER = 0.002
#: largest relative change of the surface size on seeds other than 0
SIZE_JITTER = 0.02
#: |z - z_ref| allowed for a seed-0 pole (the repository's pole gate)
POLE_TOL = 1e-12
#: criterion 5 of the acceptance scorecard, checked on fitted sweeps
FIT_IM_EXPONENT = (3.8, 4.2)
FIT_IM_R_SQUARED = 0.999
FIT_RE_EXPONENT = (1.9, 2.1)

#: the CLI's default sweep, written into the config so the input is explicit
DEFAULT_DELTAS = tuple(float(d) for d in np.geomspace(0.02, 0.12, 8))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mode: str  # "pole" or "sweep"
    l: int
    k: int  # window index: eps_l lies in J_k
    order: int
    surface: dict  # [surface] keys of seed 0, vectors as tuples
    deltas: tuple  # one entry in pole mode
    check_fit: bool = False

    def config(self, seed: int, csv_path: str) -> str:
        """Config file text for ``seed``; the program sees nothing else."""
        surface = dict(self.surface)
        if seed != 0:
            rng = random.Random(f"{self.name}/{seed}")
            surface["center"] = tuple(
                c + rng.uniform(-CENTER_JITTER, CENTER_JITTER) for c in surface["center"])
            for key in ("radius", "length1", "length2"):
                if key in surface:
                    surface[key] *= 1.0 + rng.uniform(-SIZE_JITTER, SIZE_JITTER)
        lines = ["[run]", f"mode = {self.mode}", f"l = {self.l}",
                 "[coupling]", "alpha = 0.0", "beta = 0.4", "[surface]"]
        for key, value in surface.items():
            lines.append(f"{key} = {_config_value(value)}")
        if self.mode == "pole":
            lines.append(f"delta = {self.deltas[0]!r}")
        else:
            lines.append("deltas = " + " ".join(map(repr, self.deltas)))
        lines += ["[numerics]", f"order = {self.order}",
                  "[output]", f"path = {csv_path}", "format = csv", ""]
        return "\n".join(lines)


def _config_value(value) -> str:
    """Config text that parses back to exactly ``value`` (repr keeps 17 digits)."""
    if isinstance(value, str):
        return value
    if isinstance(value, tuple):
        return " ".join(map(repr, value))
    return repr(value)


_DISK = {"family": "disk", "center": (1.0, 0.0, 1.0), "normal": (0.0, 0.0, 1.0),
         "radius": 0.5}

WORKLOADS = {w.name: w for w in (
    Workload(
        name="sweep_disk12",
        why="acceptance sweep over 8 deltas: the only workload that repeats "
            "work across deltas, so homothety caching and warm starts show here",
        mode="sweep", l=2, k=1, order=12, surface=_DISK, deltas=DEFAULT_DELTAS,
        check_fit=True),
    Workload(
        name="pole_disk16",
        why="one pole on the largest matrices (256 nodes); nothing is shared "
            "across deltas, so sweep-only mechanisms must show no change",
        mode="pole", l=2, k=1, order=16, surface=_DISK, deltas=(0.08,)),
    Workload(
        name="sweep_rect_wire12",
        why="non-periodic rectangle 0.1 from the wire: n_cut 277 makes the "
            "rank sum large, and l=3 has two open channels",
        mode="sweep", l=3, k=2, order=12,
        surface={"family": "rectangle", "center": (0.1, 0.0, 1.0),
                 "direction1": (0.0, 1.0, 0.0), "direction2": (0.0, 0.0, 1.0),
                 "length1": 0.6, "length2": 0.6},
        deltas=(0.05, 0.1, 0.2, 0.4)),
)}


def load_reference() -> dict:
    """{workload: {delta as '%.17g': [re z, im z]}} for seed 0."""
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def read_csv(path) -> tuple[dict, list[dict]]:
    """(metadata, rows) of a layres CSV; values stay strings."""
    meta, rows, header = {}, [], None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, sep, value = line[1:].partition(" = ")
                if sep:
                    meta[key.strip()] = value
            elif header is None:
                header = line.split(",")
            elif line:
                rows.append(dict(zip(header, line.split(","))))
    return meta, rows


def delta_key(delta: float) -> str:
    return f"{delta:.17g}"


def check_poles(workload: Workload, meta: dict, rows: list[dict],
                reference: dict | None) -> dict:
    """{delta key: None if the pole passes, else the reason it failed}.

    ``reference`` maps delta keys to [re z, im z]; pass None for seeds
    without reference values.  Every configured delta gets an entry, so a
    missing row counts as a failed pole.
    """
    k = workload.k
    out = {delta_key(d): "no output row" for d in workload.deltas}
    for row in rows:
        key = delta_key(float(row["delta"]))
        if key not in out:
            continue
        z = complex(float(row["re_z"]), float(row["im_z"]))
        if row.get("status", "ok") != "ok":
            out[key] = f"status {row['status']}"
        elif not (math.isfinite(z.real) and math.isfinite(z.imag)):
            out[key] = "non-finite pole"
        elif z.imag >= 0.0:
            out[key] = f"Im z = {z.imag!r} >= 0"
        elif not k * k < z.real < (k + 1) ** 2:
            out[key] = f"Re z = {z.real!r} outside J_{k}"
        elif reference is not None and key not in reference:
            out[key] = "no reference pole"
        elif reference is not None and abs(z - complex(*reference[key])) > POLE_TOL:
            out[key] = f"|z - z_ref| = {abs(z - complex(*reference[key])):.3e}"
        else:
            out[key] = None
    if workload.check_fit:
        reason = _fit_failure(meta)
        if reason:
            out = {key: why or reason for key, why in out.items()}
    return out


def _fit_failure(meta: dict) -> str | None:
    try:
        im_p = float(meta["fit_im_exponent"])
        im_r2 = float(meta["fit_im_r_squared"])
        re_p = float(meta["fit_re_exponent"])
    except (KeyError, ValueError):
        return "fit missing from output"
    if not (FIT_IM_EXPONENT[0] <= im_p <= FIT_IM_EXPONENT[1] and im_r2 > FIT_IM_R_SQUARED):
        return f"Im mu fit: exponent {im_p:.4f}, R^2 {im_r2:.6f}"
    if not FIT_RE_EXPONENT[0] <= re_p <= FIT_RE_EXPONENT[1]:
        return f"Re mu fit: exponent {re_p:.4f}"
    return None
