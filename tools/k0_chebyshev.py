"""Chebyshev coefficients of sqrt(x) e^x K_0(x) on x >= 2.

Two pieces, [2, 8] and [8, oo), each in the variable t that maps 1/x
linearly onto [-1, 1] (t = 16/x - 1 on [8, oo)).  The coefficients are
computed with mpmath at 40 digits by the discrete orthogonality of T_k on
Chebyshev points and rounded to double; each piece keeps as many as leave
the first omitted one below 2e-18.  ``layres.specfun._K0_CHEB`` holds the
table this prints, and a test regenerates it.

    python tools/k0_chebyshev.py
"""

import math

import mpmath

#: (lower end, upper end, number of coefficients) of each piece
PIECES = ((2.0, 8.0, 18), (8.0, math.inf, 15))
NODES = 40


def chebyshev_coefficients(lo, hi, terms, nodes=NODES):
    """c_k for k < terms on [lo, hi], as Python floats."""
    with mpmath.workdps(40):
        mid = (1 / mpmath.mpf(lo) + (0 if math.isinf(hi) else 1 / mpmath.mpf(hi))) / 2
        half = 1 / mpmath.mpf(lo) - mid
        theta = [mpmath.pi * (j + mpmath.mpf(1) / 2) / nodes for j in range(nodes)]
        x = [1 / (mid + half * mpmath.cos(a)) for a in theta]
        f = [mpmath.sqrt(v) * mpmath.exp(v) * mpmath.besselk(0, v) for v in x]
        return [float((2 if k else 1) * mpmath.fsum(fv * mpmath.cos(k * a)
                                                   for fv, a in zip(f, theta)) / nodes)
                for k in range(terms)]


def table():
    """{(lo, hi): coefficients} of every piece."""
    return {(lo, hi): chebyshev_coefficients(lo, hi, terms) for lo, hi, terms in PIECES}


if __name__ == "__main__":
    print("_K0_CHEB = {")
    for (lo, hi), coeffs in table().items():
        print(f"    ({lo!r}, {'math.inf' if math.isinf(hi) else repr(hi)}): np.array([")
        for c in coeffs:
            print(f"        {c!r},")
        print("    ]),")
    print("}")
