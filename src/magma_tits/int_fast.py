"""Bulk exact arithmetic helpers: contractions of integer COO.

Rational data with a common denominator cleared is integer data; GF(p)
data is its residues (`lower`).  Tables, maps and lists of matrices are
stored as COO columns of such integers, joined on a shared index (`join`),
each output index tuple packed into one int64 key, and equal keys summed
with sort and np.add.reduceat (`fold`).  Over QQ a fold sums in int64
only when every key group's size times its largest product fits, a bound
read off the factors, and on Python ints otherwise.  Over GF(p) with
(p-1)^2 in int64 it reads no factor: each is reduced mod p once, so a
product of k of them is at most (p-1)^k, and the sums run in int64 with
delayed reduction; a larger p reads its bound as QQ does.  Every table
and map is held in one canonical form (`canonical`): its blocks checked
against its shape and folded once, in lowest terms (`reduced`), read-only;
builders hand their blocks to the holders (SuperAlgebra, LinearMap,
GroupAction), which call it.  Field values are built back (`to_field`,
each distinct integer once) only where field arithmetic follows.

A contraction past _TERM_BUDGET terms (the bulk checks: super-Jacobi,
structurable, Jordan identity, algebra.lowered_map_failures) is folded one block
of output indices at a time (`fold_blocks`), keeping only the first
failing prefixes of each block, so memory follows the budget.  The other
helpers are the folds of the construction and the S4 layer: graded
commutators (`commutators`), matvecs and bilinear maps, products and
equality tests of lowered matrices (`compose`, `same_map`) and
block-diagonal copies (`tile`).  Spans, kernels, solves and inverses are
not folds: exact.py eliminates on the same integers, row by row.

Every exact contraction is a fold, under fold's one bound rule.  No
helper here uses floating point, approximates or overflows.
"""

from fractions import Fraction
from math import gcd, lcm, prod
from operator import index

import numpy as np

INT64_MAX = (1 << 63) - 1

# Terms that fold_blocks builds at once.  On a 2-core host, E7 and E8
# Jacobi took 0.025 and 0.11 s at 2^15 and at 2^16 terms (2^17 as fast,
# 2^19 a third slower on E8), at tracemalloc peaks of 2.58 and 3.29 MB at
# 2^15, 4.65 and 5.51 MB at 2^16.
_TERM_BUDGET = 1 << 15


def scaled_int_entries(values):
    """Common denominator D and the list of integers D*v for Fraction values."""
    D = lcm(*{v.denominator for v in values})
    return D, [v.numerator * (D // v.denominator) for v in values]


def _fits(ints):
    return all(-INT64_MAX <= v <= INT64_MAX for v in ints)


def as_ints(ints):
    """Integers (a list or array) as an array: int64 when they fit, Python
    ints otherwise.  ValueError for a value that is not an integer (a float
    or a Fraction, even an integral one), which would otherwise be cut."""
    if isinstance(ints, np.ndarray) and ints.dtype.kind in "biu" and ints.dtype != np.uint64:
        return ints.astype(np.int64, copy=False)
    try:
        ints = list(map(index, ints))
    except TypeError as err:        # "'float' object cannot be interpreted as an integer"
        raise ValueError(str(err)) from None
    return np.array(ints, dtype=np.int64 if _fits(ints) else object)


def lower(values, field):
    """Field values -> (D, integer array): D*v with the common denominator D
    over QQ, residues with D = 1 over GF(p); int64 when they fit, Python
    ints otherwise."""
    D, ints = scaled_int_entries(values) if field.is_rational else (1, [c.v for c in values])
    return D, as_ints(ints)


def reduced(ints, D):
    """Integers over the denominator D in lowest terms: D and the integers
    (as_ints) divided by their gcd, so that D is the lcm of the reduced
    denominators of the values, the D that `lower` gives for them."""
    ints = as_ints(ints)
    g = 1 if D == 1 else gcd(D, *ints.tolist())
    return (as_ints(ints // g) if len(ints) and g != 1 else ints), D // g


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
    """`coo` of the entries (i, j, k) of a table {(i, j): {k: c}}, each c
    coerced into the field first."""
    return coo([((i, j, k), field.of(c)) for (i, j), row in sc.items() for k, c in row.items()],
               field, 3)


class OutOfRange(ValueError):
    """The lexicographically first index tuple (`entry`) outside a shape."""

    def __init__(self, entry, shape):
        super().__init__("index %r outside shape %r" % (entry, shape))
        self.entry = entry


def read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)


def canonical(blocks, shape, p=None):
    """The canonical COO of the table or map that sums the blocks (*index
    columns, factors, D), each the products of its factors over D at its
    index tuples, one column per axis of shape: ((I, J, K) of c^K_IJ or
    (rows, columns)).  Every integer passes as_ints and every index, of
    zero-valued entries too, is checked against shape (OutOfRange); a D
    that is 0 (mod p) is a ValueError.  One fold over the lcm L of the |D|
    (D^{-1} mod p over GF(p), L = 1); returns (index columns, V, D), the
    nonzero sums sorted by index tuple, in lowest terms (`reduced`, so
    D > 0), every array read-only."""
    blocks = [([as_ints(c) for c in cols],
               [as_ints(f) if isinstance(f, (list, np.ndarray)) else index(f) for f in factors],
               index(D))
              for *cols, factors, D in blocks]
    # the uint64 view of a negative int64 is past 2^63: one compare per axis
    bad = [e for cols, _f, _D in blocks
           if any(c.dtype == object or len(c) and np.maximum.reduce(c.view(np.uint64)) >= s
                  for c, s in zip(cols, shape))
           for e in zip(*(c.tolist() for c in cols))
           if any(not 0 <= i < s for i, s in zip(e, shape))]
    if bad:
        raise OutOfRange(min(bad), tuple(shape))
    L = 1 if p is not None else lcm(*(D for *_c, D in blocks))
    terms = []
    for cols, factors, D in blocks:
        if (D if p is None else D % p) == 0:
            raise ValueError("denominator D = %d" % D
                             + ("" if p is None else " is 0 mod p = %d" % p))
        key = cols[0]
        for c, s in zip(cols[1:], shape[1:]):
            key = key * s + c
        terms.append((key, [*factors, L // D if p is None else pow(D, -1, p)]))
    keys, sums, _path = fold(terms, p)
    cols = [keys]
    for s in reversed(shape[1:]):       # split off the last column, then the one before
        cols[:1] = np.divmod(cols[0], s)
    V, D = reduced(sums, L)
    read_only(*cols, V)
    return tuple(cols), V, D


def identity_coo(n):
    """The n x n identity, lowered: ((rows, columns), integers, D)."""
    d = np.arange(n)
    return (d, d), np.ones(n, dtype=np.int64), 1


def tile(cols, sizes, V, k):
    """k copies of COO entries, copy g with each index column shifted by g
    times its size: the block-diagonal form of k equal blocks, as
    (index columns, integers)."""
    g = np.repeat(np.arange(k, dtype=np.int64), len(V))
    return tuple(np.tile(c, k) + g * s for c, s in zip(cols, sizes)), np.tile(V, k)


def compose(A, B, p=None):
    """The product AB of two lowered matrices ((rows, columns), integers, D),
    lowered, its entries sorted by column: the columns of B pushed through A
    by one matvec."""
    ((R, C), V, D), ((Rb, Cb), Vb, Db) = A, B
    (c, r), sums = matvec(((R, C), V), ((Cb, Rb), Vb), p)
    return (r, c), sums, D * Db


def same_map(A, B, p=None):
    """Whether two lowered matrices ((rows, columns), integers, D) are equal:
    one fold of A D_B - B D_A, which fails iff a key survives."""
    ((Ra, Ca), Va, Da), ((Rb, Cb), Vb, Db) = A, B
    n = int(max(Ca.max(initial=-1), Cb.max(initial=-1))) + 1
    keys, _sums, _path = fold([(Ra * n + Ca, [Va, Db]), (Rb * n + Cb, [Vb, -Da])], p)
    return not len(keys)


def to_field(ints, D, field):
    """Integers (an array or list) over the common denominator D -> field
    values: Fraction(v, D) over QQ, residues over GF(p) (D is 1 there)."""
    ints = ints.tolist() if isinstance(ints, np.ndarray) else ints
    make = (lambda v: Fraction(v, D)) if field.is_rational else field.of
    # each distinct integer is built once, and its entries share the value
    value = {v: make(v) for v in set(ints)}
    return list(map(value.__getitem__, ints))


def outer(m, n):
    """Every index pair (a, b), a < m, b < n, grouped by a (the join of two
    zero columns), so that an outer product of two tables is a fold."""
    return np.arange(m).repeat(n), np.tile(np.arange(n), m)


def join(left, right):
    """All index pairs (a, b) with left[a] == right[b], grouped by a."""
    order = right.argsort(kind="stable")
    ordered = right[order]
    lo = ordered.searchsorted(left, "left")
    cnt = ordered.searchsorted(left, "right") - lo
    a = np.arange(len(left)).repeat(cnt)
    offset = (lo - (cnt.cumsum() - cnt)).repeat(cnt)
    return a, order[np.arange(len(a)) + offset]


def _maxabs(f):
    if not isinstance(f, np.ndarray):
        return abs(f)
    return max(int(np.maximum.reduce(f)), -int(np.minimum.reduce(f))) if f.size else 0


def _products(terms, dtype):
    """The products of every term's factors in `dtype`, concatenated in
    term order."""
    out = [prod(f.astype(dtype, copy=False) if isinstance(f, np.ndarray) else f for f in factors)
           for _k, factors in terms]
    return out[0] if len(out) == 1 else np.concatenate(out)


def _residue_products(terms, p, cap):
    """The products of every term's factors mod p, (p-1)^2 in int64, in
    term order: a running product is reduced only where one more factor
    could pass int64, a whole one only where its bound (p-1)^k passes cap."""
    out = []
    for _k, factors in terms:
        acc, top = factors[0] % p, p - 1
        for f in factors[1:]:
            if top > INT64_MAX // (p - 1):
                acc, top = acc % p, p - 1
            acc, top = acc * (f % p), top * (p - 1)
        out.append(acc if top <= cap else acc % p)
    return (out[0] if len(out) == 1 else np.concatenate(out)).astype(np.int64, copy=False)


def _groups_fit(vals, starts):
    """Whether every key group's size times its largest product magnitude
    fits in int64: the bound on its partial sums, read group by group, so
    a split of the keys into blocks gives each block the same answer."""
    top = np.maximum.reduceat(np.abs(vals), starts)
    return bool(np.all(top <= INT64_MAX // np.diff(starts, append=len(vals))))


def fold(terms, p=None):
    """Exact sums of products over equal keys.

    `terms` is a list of (keys, factors): keys an int64 array, factors a
    list of integer arrays (int64 or object) as long as keys, or Python
    ints.  The products of every term are summed over equal keys across
    all terms, reduced mod p when p is given.  Returns the sorted distinct
    keys whose sum is nonzero, those sums, and the path the sums took,
    "int64" or "python-int".

    Over QQ, and GF(p) with (p-1)^2 past int64, the sums run in int64 when
    every key group's size times its largest product magnitude fits, a
    bound read group by group; the widest group times the product of the
    largest factors, read off the arrays, settles the common case.  Over
    GF(p) with (p-1)^2 in int64 no array is read: each factor is reduced
    mod p once, so k of them multiply to at most (p-1)^k, reduced mod p
    only where int64 or the widest group's sum needs it, and the sums run
    in int64 while the widest group times p - 1 fits (delayed reduction,
    as in FFLAS-FFPACK; a group would need 3 * 10^9 terms to pass it).
    Everything else runs on Python ints.
    """
    # a term without keys adds nothing, and its scalars bound no product
    terms = [(k, factors) for k, factors in terms if len(k)]
    if not terms:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), "int64"
    keys = terms[0][0] if len(terms) == 1 else np.concatenate([k for k, _f in terms])
    order = keys.argsort()
    keys = keys[order]
    new = np.empty(len(keys), dtype=bool)
    new[0] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    starts = new.nonzero()[0]
    widest = int(np.maximum.reduce(starts[1:] - starts[:-1], initial=len(keys) - starts[-1]))
    fits = True
    if p is not None and (p - 1) ** 2 <= INT64_MAX and widest * (p - 1) <= INT64_MAX:
        vals = _residue_products(terms, p, INT64_MAX // widest)[order]
    else:
        top = max(prod(max(_maxabs(f), 1) for f in factors) for _k, factors in terms)
        vals = _products(terms, np.int64 if top <= INT64_MAX else object)[order]
        if widest * top > INT64_MAX:
            fits = _groups_fit(vals, starts)
            vals = vals.astype(np.int64 if fits else object, copy=False)
    sums = np.add.reduceat(vals, starts)
    if p is not None:
        sums %= p
    nz = sums.nonzero()[0]
    return keys[starts[nz]], sums[nz], "int64" if fits else "python-int"


def joined(left, right, out, make):
    """A term group of fold_blocks: make(a, b) gives the (keys, factors)
    terms of the pairs (a, b) with left[a] == right[b], and out[b] is the
    output index of pair (a, b).  left and right hold indices >= 0; row b
    of right pairs with the sizes[b] = np.bincount(left)[right[b]] rows of
    left of its value.  A block's pairs come grouped by b, each group read
    off left sorted once by value, so a block costs its own pairs and not
    a search of all of left."""
    width = int(max(left.max(initial=-1), right.max(initial=-1))) + 1
    counts = np.bincount(left, minlength=width)
    sizes = counts[right]
    first = np.cumsum(counts) - counts
    by_value = np.argsort(left, kind="stable")

    def build(rows):
        rows = np.arange(len(right)) if rows is None else rows
        cnt = sizes[rows]
        a = np.repeat(first[right[rows]] - (np.cumsum(cnt) - cnt), cnt)
        a += np.arange(len(a))
        a = by_value[a]     # the positions are freed before make runs
        return make(a, np.repeat(rows, cnt))
    return out, sizes, build


def fold_blocks(groups, step=1, first=None, p=None):
    """fold of a contraction, in blocks of output index past a fixed term
    budget: the sorted keys of its first `first` failing prefixes (all
    when None), their nonzero sums and fold's path.

    Each group is (out, sizes, build) over the rows of its driving array,
    the right-hand side of its join (see `joined`): row r yields sizes[r]
    terms whose keys all carry the output index out[r] >= 0 (a function of
    the key, such as its last packed index), and build(rows) returns the
    (keys, factors) terms of those rows, of all rows when rows is None.
    The term count is read off `sizes` before any term is built.  Up to
    _TERM_BUDGET terms fold in one block, which is fold itself.  Past it,
    the output indices are cut into contiguous ranges of about
    _TERM_BUDGET terms, and each block folds the rows whose output falls
    in its range, so every key is summed whole in one block.  A block
    keeps the entries of its first `first` prefixes key // step with a
    nonzero sum: a prefix among the first `first` of the contraction is
    among the first `first` of every block it appears in.  The kept
    entries are sorted at the end, so keys, sums and their order are those
    of the unblocked fold.  The path is "python-int" when any block took
    it; fold reads its bounds per key group, so that is the unblocked
    fold's path.
    """
    blocks = [[None] * len(groups)]
    if sum(int(sizes.sum()) for _o, sizes, _b in groups) > _TERM_BUDGET:
        weight = np.zeros(max(int(o.max(initial=-1)) for o, _s, _b in groups) + 1, np.int64)
        for o, sizes, _b in groups:
            np.add.at(weight, o, sizes)
        # output l opens block (terms before l) // budget
        block_of = (np.cumsum(weight) - weight) // _TERM_BUDGET
        cuts = np.flatnonzero(np.diff(block_of)) + 1
        blocks = [[np.flatnonzero((o >= lo) & (o < hi)) for o, _s, _b in groups]
                  for lo, hi in zip(np.r_[0, cuts].tolist(), np.r_[cuts, len(weight)].tolist())]
    kept, path = [], "int64"
    for rows in blocks:
        keys, sums, block_path = fold([t for (_o, _s, build), r in zip(groups, rows)
                                       for t in build(r)], p)
        # copies, so that no block's whole result stays referenced
        kept.append([a.copy() for a in _first_prefixes(keys, sums, step, first)])
        if block_path != "int64":
            path = block_path
    if len(kept) == 1:
        return (*kept[0], path)
    keys = np.concatenate([k for k, _s in kept])
    order = np.argsort(keys)
    sums = np.concatenate([s for _k, s in kept])[order]
    return (*_first_prefixes(keys[order], sums, step, first), path)


def _first_prefixes(keys, sums, step, first):
    """The entries of sorted keys whose prefix key // step is among the
    first `first` distinct ones (all when None)."""
    if first is None:
        return keys, sums
    pre = keys // step
    starts = np.flatnonzero(np.r_[True, pre[1:] != pre[:-1]]) if len(keys) else pre
    upto = int(starts[first]) if len(starts) > first else len(keys)
    return keys[:upto], sums[:upto]


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


def rotations(a, b, c, n):
    """The packed triples (x * n + y) * n + z whose cyclic order r = 0, 1, 2
    reads (a, b, c): (a, b, c), (c, a, b) and (b, c, a)."""
    return [(x * n + y) * n + z for x, y, z in ((a, b, c), (c, a, b), (b, c, a))]


def distinct(keys):
    """The distinct values of a sorted int64 array, such as fold's keys
    divided down to a prefix (np.unique would sort again)."""
    return keys[np.concatenate(([True], keys[1:] != keys[:-1]))] if len(keys) else keys


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
