"""Writes the reference tables ``geometric_moments.csv`` and
``c2_constants.csv`` next to this file from mpmath at 50 digits.

mpmath is not a dependency of powertsp; the tables are checked in, and this
script only documents how they were made (with mpmath 1.3.0):

    python tests/golden/make_moment_tables.py
"""

import os

import mpmath

mpmath.mp.dps = 50
HERE = os.path.dirname(os.path.abspath(__file__))
ALPHAS = ("0.25", "0.5", "1", "1.7", "2", "3.5")
PS = ("1e-12", "1e-9", "1e-6", "1e-4", "1e-2", "0.1", "0.5")
# (A, alpha) with eps1 = eps2 = c2 = 1
C2_POINTS = (("5", "0.25"), ("0.05", "1"), ("4", "2"), ("6", "1"))


def moment(p, alpha):
    """E T^alpha = (p / q) Li_{-alpha}(q), T geometric on {1, 2, ...}."""
    q = 1 - p
    return p / q * mpmath.polylog(-alpha, q)


def c2(a, alpha):
    lam = a * a  # delta = 1
    below3 = mpmath.exp(-lam) * (1 + lam + lam * lam / 2)
    p = 1 - below3
    return (2 * a) ** alpha * (1 + (moment(p, alpha) + moment(below3, alpha)) / (a * a))


def main():
    with open(os.path.join(HERE, "geometric_moments.csv"), "w") as f:
        f.write("alpha,p,moment\n")
        for alpha in ALPHAS:
            for p in PS:
                # the float arguments, exactly, as the tests pass them
                value = moment(mpmath.mpf(float(p)), mpmath.mpf(float(alpha)))
                f.write(f"{alpha},{p},{float(value)!r}\n")
    with open(os.path.join(HERE, "c2_constants.csv"), "w") as f:
        f.write("a,alpha,c2\n")
        for a, alpha in C2_POINTS:
            value = c2(mpmath.mpf(float(a)), mpmath.mpf(float(alpha)))
            f.write(f"{a},{alpha},{float(value)!r}\n")


if __name__ == "__main__":
    main()
