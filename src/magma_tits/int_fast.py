"""Bulk exact arithmetic helpers.

Rational data with a common denominator cleared is integer data.  The
dense tensor checkers (automorphism, derivation, homomorphism,
structurable) carry such integers in float64 BLAS only when every sum of
products stays below FLOAT_EXACT_BOUND = 2**53; each caller asserts that
bound and falls back to pure-field arithmetic otherwise, so these helpers
never introduce approximation.
"""

from math import gcd

import numpy as np

FLOAT_EXACT_BOUND = float(1 << 53)


def lcm(a, b):
    return a // gcd(a, b) * b


def scaled_int_entries(values):
    """Common denominator D and the list of integers D*v for Fraction values."""
    D = 1
    for v in values:
        D = lcm(D, v.denominator)
    return D, [int(v * D) for v in values]


def sc_to_dense_int(sc, n):
    """Sparse structure constants -> (int ndarray T with T[i,j,k] = D*c^k_ij, D)."""
    vals = [c for row in sc.values() for c in row.values()]
    if not vals:
        return np.zeros((n, n, n), dtype=np.int64), 1
    D = 1
    for v in vals:
        D = lcm(D, v.denominator)
    T = np.zeros((n, n, n), dtype=np.int64)
    for (i, j), row in sc.items():
        for k, c in row.items():
            T[i, j, k] = int(c * D)
    return T, D


def matrix_to_int_array(M):
    """Exact Matrix over QQ -> (int ndarray, denominator)."""
    D, flat = scaled_int_entries([x for r in M.rows for x in r])
    return np.array(flat, dtype=np.int64).reshape(M.nrows, M.ncols), D
