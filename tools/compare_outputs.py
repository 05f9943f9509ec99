"""Compare two layres outputs, CSV or JSON, ignoring the ``config path`` line.

    python tools/compare_outputs.py [--tol X] A B

When the files agree byte for byte apart from that line it prints
``identical`` and exits 0.  Otherwise it prints the largest |delta| of each
numeric column and of each numeric metadata value, and every other
difference (a text column or metadata value, the columns, the row count),
and exits 1.  Beside the widths ``im_z`` and ``im_mu`` it also prints their
largest relative move |delta| / |A|, A the value in the first file.  With
``--tol X`` a numeric column or metadata value whose largest |delta| is at
most X agrees, and so does a text column with no differing row; neither is
printed, and when nothing else differs the tool prints ``agree within X``
and exits 0.

When A and B are directories, every ``*.csv`` and ``*.json`` name found in
either is compared as above, after a line ``== name``; a file present on
one side only is a difference.  The exit code is 0 only if every file
agrees.  If some pole moved, two last lines name the row with the largest
|delta z| (from ``re_z`` and ``im_z``) and the row with the largest
relative move of ``im_z``: the file, the surface family, the quadrature
order and the row's delta.
"""

import argparse
import json
import math
import sys
from pathlib import Path

_PATH_KEY = "config path"
#: columns whose largest |delta| / |A| is printed beside their largest |delta|
_RELATIVE = ("im_z", "im_mu")


def _without_path(text: str) -> list[str]:
    return [line for line in text.splitlines(keepends=True) if f"{_PATH_KEY} = " not in line]


def _parse(text: str):
    """(metadata {key: value}, columns, rows) of a layres CSV or JSON output."""
    if text.lstrip().startswith("{"):
        payload = json.loads(text)
        meta, columns, rows = payload["metadata"], payload["columns"], payload["rows"]
    else:
        lines = text.splitlines()
        meta = [line.lstrip("# ") for line in lines if line.startswith("#")]
        body = [line.split(",") for line in lines if line and not line.startswith("#")]
        columns, rows = body[0], body[1:]
    pairs = (line.partition(" = ") for line in meta)
    return {key: value for key, _, value in pairs if key != _PATH_KEY}, columns, rows


def _number(value):
    """``value`` as a float (null as nan), or None for text."""
    if value is None:
        return math.nan
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _delta(a, b) -> float:
    if math.isnan(a) and math.isnan(b):
        return 0.0
    if math.isnan(a) or math.isnan(b):
        return math.inf
    return abs(a - b) if a != b else 0.0


def _relative(a, b) -> float:
    """|delta| / |a|; a move away from 0, nan or inf is an infinite one."""
    delta = _delta(a, b)
    if delta == 0.0:
        return 0.0
    return delta / abs(a) if math.isfinite(delta) and a != 0.0 else math.inf


def differences(text_a: str, text_b: str, tol: float | None = None):
    """(lines describing how two outputs differ, their largest pole moves).

    The lines are empty when the outputs are identical.  With ``tol``,
    numbers whose largest |delta| is at most ``tol`` agree, and so do text
    columns that do not differ.  The pole moves are those of
    ``_largest_moves``, or None when the outputs are identical, when either
    lacks a numeric ``re_z`` or ``im_z`` column, or when they have no rows
    or different numbers of rows.
    """
    def agree(delta):
        return tol is not None and delta <= tol

    if _without_path(text_a) == _without_path(text_b):
        return [], None
    meta_a, columns_a, rows_a = _parse(text_a)
    meta_b, columns_b, rows_b = _parse(text_b)
    out = []
    for key in sorted(meta_a.keys() | meta_b.keys()):
        a, b = meta_a.get(key), meta_b.get(key)
        if a == b:
            continue
        na, nb = _number(a), _number(b)
        if a is None or b is None or na is None or nb is None:
            out.append(f"metadata {key}: {a!r} vs {b!r}")
        elif not agree(_delta(na, nb)):
            out.append(f"metadata {key}: |delta| = {_delta(na, nb):.3g}")
    if columns_a != columns_b:
        out.append(f"columns: {columns_a} vs {columns_b}")
    if len(rows_a) != len(rows_b):
        out.append(f"rows: {len(rows_a)} vs {len(rows_b)}")
    numeric = {}  # the columns numeric in both, as (a, b) per row
    for j, name in enumerate(columns_a):
        if name not in columns_b:
            continue
        jb = columns_b.index(name)
        values = [(row_a[j], row_b[jb]) for row_a, row_b in zip(rows_a, rows_b)]
        numbers = [(_number(a), _number(b)) for a, b in values]
        if all(na is not None and nb is not None for na, nb in numbers):
            numeric[name] = numbers
            worst = max((_delta(na, nb) for na, nb in numbers), default=0.0)
            if not agree(worst):
                line = f"column {name}: max |delta| = {worst:.3g}"
                if name in _RELATIVE:
                    rel = max((_relative(na, nb) for na, nb in numbers), default=0.0)
                    line += f", max |delta|/|A| = {rel:.3g}"
                out.append(line)
        else:
            differ = sum(a != b for a, b in values)
            if differ or tol is None:
                out.append(f"column {name}: {differ} of {len(values)} rows differ")
    if not rows_a or len(rows_a) != len(rows_b) or not {"re_z", "im_z"} <= numeric.keys():
        return out, None
    return out, _largest_moves(meta_a, numeric)


def _largest_moves(meta: dict, numeric: dict):
    """((largest |delta z|, where), (largest |delta im_z| / |A|, where)).

    ``numeric`` holds the numeric columns of two outputs as (a, b) per row.
    ``where`` names the surface family, the quadrature order and the row's
    delta, as far as the first output records them.
    """
    context = [meta.get("config surface.family")]
    if "config order" in meta:
        context.append(f"order {meta['config order']}")

    def where(i):
        delta = numeric["delta"][i][0] if "delta" in numeric else math.nan
        return ", ".join(filter(None, context + ([] if math.isnan(delta) else
                                                 [f"delta {delta:.6g}"])))

    moves = []
    for move in ([math.hypot(_delta(*re), _delta(*im))
                  for re, im in zip(numeric["re_z"], numeric["im_z"])],
                 [_relative(*im) for im in numeric["im_z"]]):
        i = max(range(len(move)), key=move.__getitem__)
        moves.append((move[i], where(i)))
    return tuple(moves)


def _compare(path_a, path_b, tol: float | None, moves: list) -> bool:
    """Print how two output files compare; True when they agree.

    Their largest pole moves, if any, are appended to ``moves`` with the
    file's name in each ``where``.
    """
    texts = []
    for path in (path_a, path_b):
        with open(path, encoding="utf-8") as fh:
            texts.append(fh.read())
    found, largest = differences(*texts, tol=tol)
    if largest:
        name = Path(path_a).name
        moves.append(tuple((value, f"{name} ({where})" if where else name)
                           for value, where in largest))
    if found:
        print("\n".join(found))
    elif _without_path(texts[0]) == _without_path(texts[1]):
        print("identical")
    else:
        print(f"agree within {tol:g}")
    return not found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--tol", type=float, metavar="X",
                        help="numbers whose largest |delta| is at most X agree")
    parser.add_argument("a")
    parser.add_argument("b")
    args = parser.parse_args(argv)
    a, b = Path(args.a), Path(args.b)
    if a.is_dir() != b.is_dir():
        parser.error("A and B must both be files or both be directories")
    if not a.is_dir():
        return 0 if _compare(a, b, args.tol, []) else 1
    moves = []
    names = sorted({p.name for d in (a, b) for p in d.iterdir() if p.suffix in (".csv", ".json")})
    agree = True
    for name in names:
        print(f"== {name}")
        missing = [d for d in (a, b) if not (d / name).is_file()]
        if missing:
            print(f"missing in {missing[0]}")
            agree = False
        elif not _compare(a / name, b / name, args.tol, moves):
            agree = False
    if any(dz > 0.0 for (dz, _), _ in moves):
        for k, label in enumerate(("|delta z|", "|delta im_z|/|A|")):
            value, where = max((move[k] for move in moves), key=lambda vw: vw[0])
            print(f"largest {label} = {value:.3g} in {where}")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
