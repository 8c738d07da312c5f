"""Bulk exact arithmetic helpers.

Rational data with a common denominator cleared is integer data; GF(p)
data is its residues (`lower`).  Tables, maps and lists of matrices are
stored as COO columns of such integers, joined on a shared index (`join`),
each output index tuple packed into one int64 key, and equal keys summed
with sort and np.add.reduceat (`fold`).  A fold sums in int64 only when
its widest key group times its largest product, both read off the actual
values, fits in int64, and on Python ints otherwise.  Field values are
built back (`to_field`) only for the nonzero sums.

On these helpers run the sparse checkers (super-Jacobi, structurable, the
map checks of algebra.map_failures) and the construction itself: the
graded commutators of lists of matrices (`commutators`), the sparse
products behind the inner derivations, the Tits brackets and the
coordinate algebras, and the batched coordinates of Subspace.coords_many,
which fold the vectors' pivot entries against the span's lowered pivot-row
inverse and check the reconstruction exactly.

The dense Lie-conditions check contracts such integer tables with
`einsum`, which bounds every result by the contraction length times the
product of the largest operand magnitudes, read off the actual arrays.
Under the int64 bound it runs in int64, past it on Python ints (object
arrays); over GF(p) it reduces the result mod p.  No helper here uses
floating point, approximates or overflows.
"""

from fractions import Fraction
from math import lcm, prod

import numpy as np

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


def rows_coo(rows, field):
    """`coo` of the nonzero entries (row, column) of dense rows: the rows of
    a Matrix, or a list of vectors (row = vector id)."""
    return coo([((i, j), x) for i, row in enumerate(rows) for j, x in enumerate(row) if x],
               field, 2)


def matrices_coo(mats, field):
    """`coo` of the nonzero entries (matrix, row, column) of a list of Matrix."""
    return coo([((s, i, j), x) for s, M in enumerate(mats)
                for i, row in enumerate(M.rows) for j, x in enumerate(row) if x], field, 3)


def table_coo(sc, field):
    """`coo` of the entries (i, j, k) of a table {(i, j): {k: c}}."""
    return coo([((i, j, k), c) for (i, j), row in sc.items() for k, c in row.items()],
               field, 3)


def to_field(ints, D, field):
    """Integers (an array or list) over the common denominator D -> field
    values: Fraction(v, D) over QQ, residues over GF(p) (D is 1 there)."""
    ints = ints.tolist() if isinstance(ints, np.ndarray) else ints
    if field.is_rational:
        return [Fraction(v, D) for v in ints]
    return [field.of(v) for v in ints]


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


def commutators(S, R, C, V, odd, n, p=None):
    """Graded commutators [M_s, M_t] = M_s M_t - (-1)^{|s||t|} M_t M_s of
    every ordered pair of a list of sparse n x n integer matrices.

    Entry e of the list is V[e] at (row R[e], column C[e]) of matrix S[e];
    odd[s] is the parity of matrix s.  One join on the middle index gives
    every product term once; it counts for the key (s, t, i, k) of M_s M_t
    and, signed, for (t, s, i, k).  Returns fold's (keys, sums, path) with
    keys ((s * m + t) * n + i) * n + k, m = len(odd).
    """
    m = len(odd)
    a, b = join(C, R)
    s, t = S[a], S[b]
    ik = R[a] * n + C[b]
    sign = np.where(odd[s] & odd[t], 1, -1)
    return fold([((s * m + t) * n * n + ik, [V[a], V[b]]),
                 ((t * m + s) * n * n + ik, [V[a], V[b], sign])], p)


def matvec(M, X, p=None):
    """Images of a list of sparse vectors under a sparse matrix.

    M is ((R, C), V): entry V[e] at (R[e], C[e]); X is ((ids, index),
    values) as in `bilinear`.  One join and one fold; returns the columns
    (ids, row) of the nonzero images and their sums."""
    ((R, C), V), ((xi, xa), xv) = M, X
    n = int(R.max()) + 1 if len(R) else 1
    a, b = join(C, xa)
    keys, sums, _path = fold([(xi[b] * n + R[a], [V[a], xv[b]])], p)
    return (keys // n, keys % n), sums


def bilinear(table, left, right, p=None):
    """Sums sum_{a,b} X_x[a] Y_y[b] c^k_ab of a bilinear map over two lists
    of sparse vectors.

    `table` is ((I, J, K), V): c^{K[e]}_{I[e] J[e]} = V[e].  `left` and
    `right` are ((ids, index), values): vector X_{ids[e]} has values[e] at
    index[e], likewise Y.  Two joins (the table's first index with X, its
    second with Y) and one fold of the keys (x, y, k) packed into int64.
    Returns the index columns (x, y, k) of the nonzero sums, the sums and
    fold's path.
    """
    ((I, J, K), V), ((xi, xa), xv), ((yi, yb), yv) = table, left, right
    ny = int(yi.max()) + 1 if len(yi) else 1
    nk = int(K.max()) + 1 if len(K) else 1
    a, b = join(I, xa)
    c, d = join(J[a], yb)
    a, b = a[c], b[c]
    keys, sums, path = fold([((xi[b] * ny + yi[d]) * nk + K[a], [V[a], xv[b], yv[d]])], p)
    return (keys // (ny * nk), keys // nk % ny, keys % nk), sums, path


def distinct(keys):
    """The distinct values of a sorted int64 array, such as fold's keys
    divided down to a prefix (np.unique would sort again)."""
    return keys[np.r_[True, keys[1:] != keys[:-1]]] if len(keys) else keys


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
    T is None when a scaled constant passes int64.  No checker uses it; the
    perfbench tracer still names it as a layer."""
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
    None when a scaled entry passes int64.  No caller is left; the perfbench
    tracer still names it as a layer."""
    D, flat = scaled_int_entries([x for r in M.rows for x in r])
    if not _fits(flat):
        return None, D
    return np.array(flat, dtype=np.int64).reshape(M.nrows, M.ncols), D
