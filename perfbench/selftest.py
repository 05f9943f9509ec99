"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py   # about three minutes

Checks that generated configs round-trip through ``parse_config``, that the
pole gate rejects a pole moved by 1e-11 and any pole that breaks an
invariant, and that the work counts of two traced runs of each workload are
equal.  Exits 1 if any check fails.
"""

from __future__ import annotations

import sys

from run import SRC, Runner
from spans import layer_metrics
from workloads import (CENTER_JITTER, SIZE_JITTER, WORKLOADS, check_poles,
                       load_reference)

COUNTS = ("resonance.eta_per_pole", "bs_operator.singular_part_matrix.calls",
          "bs_operator.mode_vector.calls", "greens.EwaldGreen.pairs.count")
#: counts this commit gives, named as acceptance criteria of the benchmark
EXPECTED = {("pole_disk16", "resonance.eta_per_pole"): 10,
            ("sweep_disk12", "bs_operator.singular_part_matrix.calls"): 8}


def check_config_roundtrip():
    sys.path.insert(0, str(SRC))
    from layres.cli import parse_config

    for w in WORKLOADS.values():
        for seed in (0, 1, 7):
            cfg = parse_config(w.config(seed, "out.csv"))
            assert (cfg.mode, cfg.l, cfg.order, cfg.path) == (w.mode, w.l, w.order, "out.csv")
            got = cfg.deltas if w.mode == "sweep" else (cfg.delta,)
            assert tuple(got) == w.deltas, (w.name, got)
            for key, want in w.surface.items():
                text = cfg.resolved[f"surface.{key}"]
                if isinstance(want, str):
                    assert text == want
                    continue
                values = tuple(float(v) for v in text.split())
                want = want if isinstance(want, tuple) else (want,)
                if seed == 0 or key not in ("center", "radius", "length1", "length2"):
                    assert values == want, (w.name, key, values, want)
                elif key == "center":
                    assert all(abs(v - c) <= CENTER_JITTER for v, c in zip(values, want))
                else:
                    assert abs(values[0] / want[0] - 1.0) <= SIZE_JITTER
            assert cfg.surface is not None


GOOD_FIT = {"fit_im_exponent": "4.0", "fit_im_r_squared": "0.99999",
            "fit_re_exponent": "2.0"}


def _rows(poles):
    return [{"delta": d, "re_z": repr(re), "im_z": repr(im), "status": "ok"}
            for d, (re, im) in poles.items()]


def check_gate():
    reference = load_reference()
    for name, w in WORKLOADS.items():
        ref = reference[name]
        assert set(ref) == set(check_poles(w, GOOD_FIT, [], ref)), name
        assert all(v is None for v in check_poles(w, GOOD_FIT, _rows(ref), ref).values())
        first = next(iter(ref))
        for shift in (1e-11, -1e-11, 1e-11j):
            moved = dict(ref)
            z = complex(*ref[first]) + shift
            moved[first] = [z.real, z.imag]
            verdict = check_poles(w, GOOD_FIT, _rows(moved), ref)
            assert verdict[first] is not None, (name, shift)
            assert sum(v is not None for v in verdict.values()) == 1
        k = w.k
        for bad in ([ref[first][0], 1e-9], [(k + 1) ** 2 + 0.5, ref[first][1]]):
            verdict = check_poles(w, GOOD_FIT, _rows({**ref, first: bad}), None)
            assert verdict[first] is not None, (name, bad)
        missing = check_poles(w, GOOD_FIT, _rows(ref)[1:], ref)
        assert missing[first] == "no output row"
    sweep = WORKLOADS["sweep_disk12"]
    ref = reference[sweep.name]
    for key, bad in (("fit_im_exponent", "3.5"), ("fit_im_r_squared", "0.99"),
                     ("fit_re_exponent", "2.3")):
        verdict = check_poles(sweep, {**GOOD_FIT, key: bad}, _rows(ref), ref)
        assert all(v is not None for v in verdict.values()), key


def check_counts_repeat():
    reference = load_reference()
    for name, w in WORKLOADS.items():
        runner = Runner(w, seed=0, reference=reference[name])
        first, second = (layer_metrics(runner.invoke("--trace")["spans"]) for _ in range(2))
        assert runner.failed == 0, f"{name}: poles of a traced run fail the gate"
        for count in COUNTS:
            assert first[count] == second[count], (name, count, first[count], second[count])
            print(f"  {name} {count} = {first[count][0]}")
        for (wname, count), want in EXPECTED.items():
            if wname == name:
                assert first[count][0] == want, (name, count, first[count][0])
        assert first["trace.coverage"][0] >= 0.9, (name, first["trace.coverage"])


def main() -> int:
    if not __debug__:
        sys.exit("the checks are asserts; run without -O")
    failed = 0
    for check in (check_config_roundtrip, check_gate, check_counts_repeat):
        try:
            check()
            print(f"PASS {check.__name__}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {check.__name__}: {exc!r}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
