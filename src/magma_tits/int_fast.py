"""Bulk exact arithmetic helpers.

Rational data with a common denominator cleared is integer data; GF(p)
data is its residues (`lower`).  The sparse checkers (super-Jacobi,
structurable) store tables as COO columns of such integers, join them on a
shared index (`join`), pack each output index tuple into one int64 key,
sort and sum equal keys with np.add.reduceat (`fold`).  A fold sums in
int64 only when its widest key group times its largest product, both read
off the actual values, fits in int64, and on Python ints otherwise.

The dense Lie-conditions check contracts such integer tables with
`einsum`, which bounds every result by the contraction length times the
product of the largest operand magnitudes, read off the actual arrays.
Under the int64 bound it runs in int64, past it on Python ints (object
arrays); over GF(p) it reduces the result mod p.

The dense tensor checkers (automorphism, derivation, homomorphism) carry
integers in float64 BLAS only when every sum of products stays below
FLOAT_EXACT_BOUND = 2**53.  Each caller checks that bound on the
`scaled_int_entries` magnitudes before building any int64 array and takes
the pure-field loop otherwise, so no helper here approximates or overflows.
"""

from math import lcm, prod

import numpy as np

FLOAT_EXACT_BOUND = float(1 << 53)
INT64_MAX = (1 << 63) - 1


def scaled_int_entries(values):
    """Common denominator D and the list of integers D*v for Fraction values."""
    D = lcm(*{v.denominator for v in values})
    return D, [v.numerator * (D // v.denominator) for v in values]


def _fits(ints):
    return all(-INT64_MAX <= v <= INT64_MAX for v in ints)


def lower(values, field):
    """Field values -> (D, integer array): D*v with the common denominator D
    over QQ, residues with D = 1 over GF(p); int64 when they fit, Python
    ints otherwise."""
    D, ints = scaled_int_entries(values) if field.is_rational else (1, [c.v for c in values])
    return D, np.array(ints, dtype=np.int64 if _fits(ints) else object)


def coo(entries, field, width):
    """Sparse (index tuple, scalar) entries -> (index columns, values, D).

    The index columns are int64 arrays, one per position of the tuples of
    length `width`; the values and D are those of `lower`."""
    idx = np.array([ix for ix, _c in entries], dtype=np.int64).reshape(-1, width)
    D, vals = lower([c for _ix, c in entries], field)
    return tuple(idx.T), vals, D


def join(left, right):
    """All index pairs (a, b) with left[a] == right[b], grouped by a."""
    order = np.argsort(right, kind="stable")
    lo = np.searchsorted(right[order], left, "left")
    cnt = np.searchsorted(right[order], left, "right") - lo
    a = np.repeat(np.arange(len(left)), cnt)
    offset = np.repeat(lo - (np.cumsum(cnt) - cnt), cnt)
    return a, order[np.arange(len(a)) + offset]


def _maxabs(f):
    if not isinstance(f, np.ndarray):
        return abs(f)
    return max(int(f.max()), -int(f.min())) if f.size else 0


def fold(terms, p=None):
    """Exact sums of products over equal keys.

    `terms` is a list of (keys, factors): keys an int64 array, factors a
    list of integer arrays (int64 or object) as long as keys, or Python
    ints.  The products of every term are summed over equal keys across
    all terms, reduced mod p when p is given.  Returns the sorted distinct
    keys whose sum is nonzero, those sums, and the path the sums took,
    "int64" or "python-int".
    """
    keys = np.concatenate([k for k, _f in terms])
    if not len(keys):
        return keys, np.zeros(0, dtype=np.int64), "int64"
    order = np.argsort(keys)
    keys = keys[order]
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    widest = int(np.diff(np.r_[starts, len(keys)]).max())
    top = max(prod(max(_maxabs(f), 1) for f in factors) for k, factors in terms if len(k))
    fits = widest * top <= INT64_MAX
    dtype = np.int64 if fits else object
    vals = np.concatenate([
        prod(f.astype(dtype, copy=False) if isinstance(f, np.ndarray) else f for f in factors)
        for _k, factors in terms])[order]
    sums = np.add.reduceat(vals, starts)
    if p is not None:
        sums %= p
    nz = np.flatnonzero(sums != 0)
    return keys[starts[nz]], sums[nz], "int64" if fits else "python-int"


def einsum(spec, *ops, p=None):
    """Exact np.einsum of integer arrays (int64 or object) -> (array, path).

    `spec` names every index explicitly ("ab,bc->ac").  The result is
    bounded by the contraction length times the product of the largest
    operand magnitudes; it is computed in int64 when that bound fits and
    on Python ints otherwise, and reduced mod p when p is given.  The path
    is "int64" or "python-int"."""
    inputs, output = spec.split("->")
    size = {}
    for letters, op in zip(inputs.split(","), ops):
        size.update(zip(letters, op.shape))
    length = prod(size[c] for c in set(size) - set(output))
    fits = length * prod(max(_maxabs(op), 1) for op in ops) <= INT64_MAX
    dtype = np.int64 if fits else object
    out = np.einsum(spec, *(op.astype(dtype, copy=False) for op in ops))
    if p is not None:
        out %= p
    return out, "int64" if fits else "python-int"


def sc_to_dense_int(sc, n):
    """Sparse structure constants -> (T, D) with T[i,j,k] = D*c^k_ij as int64;
    T is None when a scaled constant passes int64."""
    D, ints = scaled_int_entries([c for row in sc.values() for c in row.values()])
    if not _fits(ints):
        return None, D
    T = np.zeros((n, n, n), dtype=np.int64)
    if ints:
        I, J, K = np.array([(i, j, k) for (i, j), row in sc.items() for k in row]).T
        T[I, J, K] = ints
    return T, D


def matrix_to_int_array(M):
    """Exact Matrix over QQ -> (int64 ndarray, denominator); the array is
    None when a scaled entry passes int64."""
    D, flat = scaled_int_entries([x for r in M.rows for x in r])
    if not _fits(flat):
        return None, D
    return np.array(flat, dtype=np.int64).reshape(M.nrows, M.ncols), D
