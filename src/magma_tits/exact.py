"""Exact scalars (rationals or GF(p), p >= 5) and exact linear algebra.

Everything downstream computes over one of these fields; there is no
floating-point tolerance anywhere.  The bulk checks and the construction
lower these scalars to exact integers (see int_fast.py).

Every span, kernel, solve and inverse is one sparse fraction-free
Gauss-Jordan elimination on integer rows {column: int}, row k standing
for itself over its entry at its pivot column (_append, echelon).  Over QQ
each new or updated row is divided by the gcd of its entries; over GF(p)
its entries are residues and its pivot is scaled to 1, the p switch of
int_fast.fold.  No Fraction is added, multiplied or divided: a Matrix is
lowered (int_row, int_fast.rows_coo) and its rref, kernel, solution or
inverse is built back with Fraction(numerator, denominator).  Callers that
hold integer COO hand it over (coo_rows, kernel_coo, kernel_of, solution,
solution_space, inverse_coo) and get lowered COO back.  A Subspace keeps
its echelon rows as integers, takes vectors one at a time or as a batch
(add_many), and gives the coordinates of a whole batch of sparse integer
vectors at once (Subspace.coords_many).
"""

import operator
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from .int_fast import as_ints, canonical, distinct, fold, join, reduced, rows_coo, to_field


class GFElement:
    """Residue modulo a prime p >= 5."""

    __slots__ = ("p", "v")

    def __init__(self, p, v):
        self.p = p
        self.v = v % p

    def _lift(self, other):
        if isinstance(other, GFElement):
            if other.p != self.p:
                raise ValueError("mixed characteristics %d and %d" % (self.p, other.p))
            return other
        if isinstance(other, int):
            return GFElement(self.p, other)
        if isinstance(other, Fraction):
            return GFElement(self.p, other.numerator * pow(other.denominator, -1, self.p))
        return NotImplemented

    def __add__(self, other):
        o = self._lift(other)
        return o if o is NotImplemented else GFElement(self.p, self.v + o.v)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        return o if o is NotImplemented else GFElement(self.p, self.v - o.v)

    def __rsub__(self, other):
        o = self._lift(other)
        return o if o is NotImplemented else GFElement(self.p, o.v - self.v)

    def __mul__(self, other):
        o = self._lift(other)
        return o if o is NotImplemented else GFElement(self.p, self.v * o.v)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return o
        if o.v == 0:
            raise ZeroDivisionError("division by zero in GF(%d)" % self.p)
        return GFElement(self.p, self.v * pow(o.v, -1, self.p))

    def __rtruediv__(self, other):
        o = self._lift(other)
        return o if o is NotImplemented else o.__truediv__(self)

    def __neg__(self):
        return GFElement(self.p, -self.v)

    def __eq__(self, other):
        if isinstance(other, GFElement):
            return self.p == other.p and self.v == other.v
        if isinstance(other, (int, Fraction)):
            return self.v == self._lift(other).v
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.v))

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return "%d#%d" % (self.v, self.p)


class FieldQ:
    """The rational field; elements are fractions in lowest terms."""

    name = "QQ"
    is_rational = True
    p = None            # the modulus, as FieldGF.p; the kernel reduces mod p unless None

    def of(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, (int, str)):
            return Fraction(x)
        raise TypeError("cannot coerce %r into QQ" % (x,))

    # shared constants, so that equal entries of zero matrices are one object
    zero, one = Fraction(0), Fraction(1)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, FieldQ)

    def __hash__(self):
        return hash("QQ")


# Miller-Rabin with the first 13 prime bases is exact below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(p):
    """Deterministic primality test for p < _MR_LIMIT."""
    if p >= _MR_LIMIT:
        raise ValueError("primality of %d is not decided: GF(p) needs p < %d"
                         % (p, _MR_LIMIT))
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class FieldGF:
    """Prime field GF(p), p >= 5 (characteristic 2 and 3 are excluded throughout)."""

    is_rational = False

    def __init__(self, p):
        if p < 5:
            raise ValueError("characteristic must be >= 5, got %d" % p)
        if not _is_prime(p):
            raise ValueError("%d is not prime" % p)
        self.p = p
        self.name = "GF(%d)" % p
        self.zero, self.one = GFElement(p, 0), GFElement(p, 1)

    def of(self, x):
        if isinstance(x, GFElement):
            if x.p != self.p:
                raise ValueError("mixed characteristics")
            return x
        if isinstance(x, int):
            return GFElement(self.p, x)
        if isinstance(x, Fraction):
            return GFElement(self.p, x.numerator * pow(x.denominator, -1, self.p))
        if isinstance(x, str):
            return self.of(Fraction(x))
        raise TypeError("cannot coerce %r into GF(%d)" % (x, self.p))

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return isinstance(other, FieldGF) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


QQ = FieldQ()


def GF(p):
    return FieldGF(p)


class Matrix:
    """Dense row-major matrix of exact field elements."""

    __slots__ = ("rows", "nrows", "ncols", "field")

    def __init__(self, rows, field=QQ):
        self.rows = [[field.of(x) for x in r] for r in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        if any(len(r) != self.ncols for r in self.rows):
            raise ValueError("ragged rows")
        self.field = field

    @classmethod
    def zeros(cls, n, m, field=QQ):
        z = field.zero
        M = cls.__new__(cls)
        M.rows = [[z] * m for _ in range(n)]
        M.nrows, M.ncols, M.field = n, m, field
        return M

    @classmethod
    def identity(cls, n, field=QQ):
        M = cls.zeros(n, n, field)
        for i in range(n):
            M.rows[i][i] = field.one
        return M

    @classmethod
    def from_columns(cls, cols, field=QQ):
        n = len(cols[0])
        M = cls.zeros(n, len(cols), field)
        for j, c in enumerate(cols):
            if len(c) != n:
                raise ValueError("ragged columns")
            for i in range(n):
                M.rows[i][j] = field.of(c[i])
        return M

    @classmethod
    def from_coo(cls, n, m, lowered, field=QQ):
        """The n x m matrix of lowered COO ((rows, cols), integers, D), the
        form int_fast.rows_coo gives: a sparse result of int_fast built back.
        Repeated (row, column) entries add up: int_fast.canonical sums them,
        as LinearMap does; ValueError for an entry outside n x m."""
        (rows, cols), V, D = lowered
        (R, C), V, D = canonical([(rows, cols, [V], D)], (n, m), field.p)
        M = cls.zeros(n, m, field)
        for i, j, x in zip(R.tolist(), C.tolist(), to_field(V, D, field)):
            M.rows[i][j] = x
        return M

    def copy(self):
        M = Matrix.__new__(Matrix)
        M.rows = [r[:] for r in self.rows]
        M.nrows, M.ncols, M.field = self.nrows, self.ncols, self.field
        return M

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __setitem__(self, ij, v):
        i, j = ij
        self.rows[i][j] = self.field.of(v)

    def column(self, j):
        return [r[j] for r in self.rows]

    def __add__(self, other):
        return self._entrywise(other, operator.add)

    def __sub__(self, other):
        return self._entrywise(other, operator.sub)

    def _entrywise(self, other, op):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape mismatch: %dx%d vs %dx%d"
                             % (self.nrows, self.ncols, other.nrows, other.ncols))
        M = self.copy()
        M.rows = [list(map(op, ra, rb)) for ra, rb in zip(self.rows, other.rows)]
        return M

    def scale(self, c):
        c = self.field.of(c)
        M = self.copy()
        M.rows = [[x * c for x in r] for r in self.rows]
        return M

    def __neg__(self):
        return self.scale(-1)

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError("inner dimensions differ")
        out = Matrix.zeros(self.nrows, other.ncols, self.field)
        ocols = other.ncols
        for i in range(self.nrows):
            ra = self.rows[i]
            ro = out.rows[i]
            for k in range(self.ncols):
                a = ra[k]
                if not a:
                    continue
                rb = other.rows[k]
                for j in range(ocols):
                    b = rb[j]
                    if b:
                        ro[j] = ro[j] + a * b
        return out

    def apply(self, vec):
        """Matrix times coordinate vector (a plain list)."""
        if len(vec) != self.ncols:
            raise ValueError("vector length %d != %d columns" % (len(vec), self.ncols))
        zero = self.field.zero
        out = [zero] * self.nrows
        for j, x in enumerate(vec):
            if not x:
                continue
            for i in range(self.nrows):
                a = self.rows[i][j]
                if a:
                    out[i] = out[i] + a * x
        return out

    def transpose(self):
        M = Matrix.zeros(self.ncols, self.nrows, self.field)
        for i in range(self.nrows):
            for j in range(self.ncols):
                M.rows[j][i] = self.rows[i][j]
        return M

    @property
    def T(self):
        return self.transpose()

    def trace(self):
        return sum((self.rows[i][i] for i in range(min(self.nrows, self.ncols))), self.field.zero)

    def is_zero(self):
        return all(not x for r in self.rows for x in r)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.nrows, self.ncols) == (other.nrows, other.ncols) and self.rows == other.rows

    def __repr__(self):
        return "Matrix(%d x %d over %s)" % (self.nrows, self.ncols, self.field)

    def _int_rows(self):
        return [int_row(r, self.field)[0] for r in self.rows]

    def rref(self):
        """Reduced row echelon form; returns (R, pivot_columns)."""
        rows, pivots = echelon(self._int_rows(), self.field.p, self.ncols)
        R = _lowered([(w, w[c]) for w, c in zip(rows, pivots)], self.field.p)
        return Matrix.from_coo(self.nrows, self.ncols, R, self.field), pivots

    def rank(self):
        return len(echelon(self._int_rows(), self.field.p, self.ncols)[1])

    def kernel_basis(self):
        """Exact basis of the right null space, as coordinate lists."""
        ker, k = kernel_coo(self._int_rows(), self.ncols, self.field.p)
        return Matrix.from_coo(k, self.ncols, ker, self.field).rows

    def solve(self, b):
        """One exact solution of self @ x = b, or None if inconsistent."""
        if len(b) != self.nrows:
            raise ValueError("rhs length %d != %d rows" % (len(b), self.nrows))
        return solution([int_row(r + [x], self.field)[0] for r, x in zip(self.rows, b)],
                        self.ncols, self.field)

    def inverse(self):
        if self.nrows != self.ncols:
            raise ValueError("not square")
        return Matrix.from_coo(self.nrows, self.nrows, inverse_coo(
            rows_coo(self.rows, self.field), self.nrows, self.field.p), self.field)


def solve(A, b):
    """Exact solution of A x = b or None (module-level convenience)."""
    return A.solve(b)


def kernel_basis(A):
    return A.kernel_basis()


def rank(A):
    return A.rank()


# -- vector helpers (vectors are plain lists of field elements) --------------

def vec_zero(n, field=QQ):
    return [field.zero] * n


def vec_is_zero(a):
    return all(not x for x in a)


def vec_eq(a, b):
    return len(a) == len(b) and all(x == y for x, y in zip(a, b))


def basis_vector(n, i, field=QQ):
    v = vec_zero(n, field)
    v[i] = field.one
    return v


def flatten_matrix(M):
    return [x for r in M.rows for x in r]


def int_row(v, field):
    """A dense vector of field values (or ints) as a sparse integer row
    {index: int} and its scale: the vector times the lcm of its
    denominators over QQ, its nonzero residues and 1 over GF(p)."""
    if field.p is not None:
        return {j: r for j, x in enumerate(v) if x and (r := field.of(x).v)}, 1
    nz = [(j, x) for j, x in enumerate(v) if x]
    L = lcm(*(x.denominator for _j, x in nz))
    return {j: x.numerator * (L // x.denominator) for j, x in nz}, L


def coo_rows(lowered, n, p=None):
    """The n sparse integer rows of a lowered matrix ((rows, columns),
    integers, D), equal entries summed, mod p over GF(p).  D scales every
    row alike: it changes neither their echelon nor their kernel."""
    (R, C), V, _D = lowered
    rows = [{} for _ in range(n)]
    for i, j, x in zip(R.tolist(), C.tolist(), V.tolist()):
        rows[i][j] = rows[i].get(j, 0) + x
    return [{j: x % p if p else x for j, x in w.items() if (x % p if p else x)} for w in rows]


def _combine(u, v, x, a, p):
    """a u - x v for sparse integer rows, x = u[c] and a = v[c] at v's pivot
    c, as a new row without zeros: over QQ a and x are divided by their gcd
    first, over GF(p) (where a = 1) the entries are reduced mod p."""
    if p is None:
        g = gcd(a, x)
        a, x = a // g, x // g
    w = dict(u) if a == 1 else {j: a * y for j, y in u.items()}
    for j, y in v.items():
        z = w.get(j, 0) - x * y
        if p is not None:
            z %= p
        if z:
            w[j] = z
        else:
            del w[j]
    return w


def _primitive(w, c, p):
    """w over QQ divided by the gcd of its entries; over GF(p) scaled to 1 at c."""
    if p is None:
        g = gcd(*w.values())
        return w if g == 1 else {j: y // g for j, y in w.items()}
    s = pow(w[c], -1, p)
    return w if s == 1 else {j: y * s % p for j, y in w.items()}


def _remainder(rows, pivots, w, p):
    """w minus its components along the echelon rows: a multiple of the
    unique remainder, empty iff w lies in their span."""
    for row, c in zip(rows, pivots):
        if c in w:
            w = _combine(w, row, w[c], row[c], p)
    return w


def _append(rows, pivots, w, p):
    """The elimination step: if w has a remainder, make it primitive with
    its first index as pivot, clear that column from the other rows and
    append it.  True if w enlarged the row space."""
    w = _remainder(rows, pivots, w, p)
    if not w:
        return False
    c = min(w)
    w = _primitive(w, c, p)
    for k, row in enumerate(rows):
        if c in row:
            rows[k] = _primitive(_combine(row, w, row[c], w[c], p), pivots[k], p)
    rows.append(w)
    pivots.append(c)
    return True


def echelon(rows, p=None, width=None):
    """The reduced row echelon form of sparse integer rows {column: int}
    (cleared over QQ, residues over GF(p)), stopping at `width` pivots:
    (rows, pivots) sorted by pivot, row k standing for rows[k] over
    rows[k][pivots[k]]."""
    out, pivots = [], []
    for w in rows:
        if len(pivots) == width:
            break
        _append(out, pivots, w, p)
    order = sorted(range(len(pivots)), key=pivots.__getitem__)
    return [out[k] for k in order], [pivots[k] for k in order]


def _lowered(rows, p):
    """Sparse integer rows, each over its own denominator ({column: int}, d),
    as one lowered matrix ((rows, columns), integers, D), sorted, D the lcm
    of the d in lowest terms (1 over GF(p))."""
    D = lcm(*(d for _w, d in rows))
    entries = [(i, j, w[j] * (D // d)) for i, (w, d) in enumerate(rows) for j in sorted(w)]
    R, C, V = zip(*entries) if entries else ((), (), ())
    V, D = reduced(V, D) if p is None else (as_ints(V), 1)
    return (np.array(R, dtype=np.int64), np.array(C, dtype=np.int64)), V, D


def kernel_coo(rows, n, p=None):
    """The echelon basis of the right kernel of sparse integer rows on n
    columns (vector t is 1 at the t-th free column f, minus the echelon
    entries of column f at the pivots), lowered ((vector, index), integers,
    D), and the number of vectors."""
    return _kernel(*echelon(rows, p, n), n, p)


def _kernel(rows, pivots, n, p):
    """kernel_coo of echelon rows, read at their columns below n."""
    D = lcm(*(row[c] for row, c in zip(rows, pivots)))
    free = {f: t for t, f in enumerate(sorted(set(range(n)) - set(pivots)))}
    vecs = [({f: D}, D) for f in free]
    for row, c in zip(rows, pivots):
        for j, x in row.items():
            if j != c and j < n:
                vecs[free[j]][0][c] = -x * (D // row[c]) % p if p else -x * (D // row[c])
    return _lowered(vecs, p), len(free)


def kernel_of(lowered, m, n, field):
    """Matrix.kernel_basis of the m x n matrix given lowered ((rows,
    columns), integers, D), without building it."""
    ker, k = kernel_coo(coo_rows(lowered, m, field.p), n, field.p)
    return Matrix.from_coo(k, n, ker, field).rows


def solution(rows, n, field):
    """One solution x (field values) of the sparse integer rows with the
    coefficients at columns 0..n-1 and the right-hand side at column n;
    None if they are inconsistent."""
    return _point(*echelon(rows, field.p, n + 1), n, field)


def solution_space(rows, n, field):
    """`solution` of sparse integer rows and the kernel_basis of their
    coefficients (columns 0..n-1), both read off one echelon; None if the
    rows are inconsistent."""
    rows, pivots = echelon(rows, field.p, n + 1)
    x = _point(rows, pivots, n, field)
    if x is None:
        return None
    ker, k = _kernel(rows, pivots, n, field.p)
    return x, Matrix.from_coo(k, n, ker, field).rows


def _point(rows, pivots, n, field):
    """`solution` of echelon rows."""
    if pivots and pivots[-1] == n:
        return None
    x = [field.zero] * n
    for row, c in zip(rows, pivots):
        x[c] = Fraction(row.get(n, 0), row[c]) if field.p is None else field.of(row.get(n, 0))
    return x


def inverse_coo(lowered, n, p=None):
    """The inverse of the n x n matrix given lowered ((rows, columns),
    integers, D), lowered in lowest terms: one echelon of the rows of
    [D A | D I].  ValueError if it is singular."""
    rows, pivots = echelon([{**w, n + i: lowered[2]} for i, w in enumerate(coo_rows(lowered, n, p))],
                           p)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return _lowered([({j - n: x for j, x in w.items() if j >= n}, w[k])
                     for k, w in enumerate(rows)], p)


class Subspace:
    """Span of a list of vectors with a deterministic preferred basis.

    Vectors are fed in order, one at a time (add) or as an integer batch
    (add_many); each one that increases the rank is kept as a basis vector,
    so the basis is a subset of the generators, reproducible across runs.
    The kept vectors and the echelon rows of the span are sparse integer
    rows; the field-valued `basis` is built from them on first read.
    Coordinates come from the inverse of the basis at the pivot coordinates
    (the first independent rows), found by the same elimination.  A
    frozen span (freeze) refuses to grow.
    """

    def __init__(self, ambient_dim, field=QQ):
        self.ambient_dim = ambient_dim
        self.field = field
        self._rows, self._pivots = [], []   # echelon rows of the span, in feed order
        self._kept = []            # the kept vectors, ({index: int}, denominator)
        self._basis = self._lowered = None
        self.frozen = False

    @classmethod
    def from_vectors(cls, vectors, ambient_dim=None, field=QQ):
        S = cls(len(vectors[0]) if ambient_dim is None else ambient_dim, field)
        for v in vectors:
            S.add(v)
        return S

    @property
    def dim(self):
        return len(self._kept)

    @property
    def basis(self):
        """The kept vectors as lists of field values."""
        if self._basis is None:
            self._basis = Matrix.from_coo(self.dim, self.ambient_dim,
                                          _lowered(self._kept, self.field.p), self.field).rows
        return self._basis

    def _check_length(self, v):
        if len(v) != self.ambient_dim:
            raise ValueError("vector of length %d, the space has ambient dimension %d"
                             % (len(v), self.ambient_dim))

    def freeze(self):
        """Refuse every later add or add_many (of a nonzero vector) with
        ValueError, for a span that many constructions share; returns self."""
        self.frozen = True
        return self

    def _keep(self, w, d):
        if self.frozen:
            raise ValueError("the span is frozen: it is shared and cannot grow")
        if not _append(self._rows, self._pivots, w, self.field.p):
            return False
        self._kept.append((w, d))
        self._basis = self._lowered = None
        return True

    def add(self, v):
        """Add v to the span; returns True if it enlarged the space."""
        self._check_length(v)
        return self._keep(*int_row(v, self.field))

    def add_many(self, ids, cols, vals, D=1):
        """add of a batch as coords_many takes it (vector ids[e] has vals[e] / D
        at index cols[e]), fed in increasing id; returns the kept ids."""
        S = np.asarray(ids, dtype=np.int64)
        kept = coo_rows(((S, np.asarray(cols, dtype=np.int64)), as_ints(vals), D),
                        int(S.max(initial=-1)) + 1, self.field.p)
        return [i for i, w in enumerate(kept) if w and self._keep(w, 1 if self.field.p else D)]

    def contains(self, v):
        self._check_length(v)
        return not _remainder(self._rows, self._pivots, int_row(v, self.field)[0], self.field.p)

    def coords(self, v, check=True):
        """Coordinates of v in the preferred basis; None if v is outside
        (with check False, those of its projection through the pivot rows)."""
        self._check_length(v)
        w, d = int_row(v, self.field)
        if check and _remainder(self._rows, self._pivots, w, self.field.p):
            return None
        _pos, ((K, I), Vq, Dq), _P = self._lower()
        c = [0] * self.dim
        for k, i, q in zip(K.tolist(), I.tolist(), Vq.tolist()):
            c[k] += q * w.get(self._pivots[i], 0)
        return to_field(c, Dq * d, self.field)

    def _lower(self):
        """The pivot map (ambient index -> pivot position or -1) and, lowered,
        the inverse Q of the basis B (as columns) at the pivot coordinates
        and P = B Q: Q takes a vector's pivot entries to its coordinates, P
        to the vector they reconstruct.  Q is the inverse_coo of the pivot
        rows of B; column k of P is the echelon row of pivot position k."""
        if self._lowered is None:
            p = self.field.p
            pos = np.full(self.ambient_dim, -1, dtype=np.int64)
            pos[self._pivots] = np.arange(self.dim)
            L = lcm(*(d for _w, d in self._kept))
            Q = inverse_coo(_lowered([({k: w[c] * (L // d) for k, (w, d) in enumerate(self._kept)
                                        if c in w}, L) for c in self._pivots], p), self.dim, p)
            (k, a), V, D = _lowered([(w, w[c]) for w, c in zip(self._rows, self._pivots)], p)
            self._lowered = (pos, Q, ((a, k), V, D))
        return self._lowered

    def coords_many(self, ids, cols, vals, D=1, check=True):
        """Coordinates of a batch of sparse vectors in the preferred basis.

        Vector ids[e] has the integer vals[e] / D at ambient index cols[e]
        (denominator-cleared over QQ, residues with D = 1 over GF(p); equal
        (id, index) entries add up); ids, cols and vals may be sequences.
        Returns (ids, basis indices, integers, their denominator) of the
        nonzero coordinates and the sorted ids of the vectors outside the
        span: those whose exact integer reconstruction sum_k c_k b_k differs
        from the vector (none are looked for when check is False; the
        coordinates are then those of the projection through the pivot
        rows).  One join of the pivot entries with the rows of the lowered
        Q, and of P below them when check, and one fold: the coordinates at
        the rows of Q, the reconstruction minus the vector at those of P.
        """
        p = self.field.p
        ids, cols = np.asarray(ids, dtype=np.int64), np.asarray(cols, dtype=np.int64)
        vals = as_ints(vals)
        pos, ((K, Q), Vq, Dq), ((Pr, Pc), Vp, Dp) = self._lower()
        m = max(self.dim, 1)
        width = m + self.ambient_dim if check else m
        rows, piv, V = (np.concatenate((K, m + Pr)), np.concatenate((Q, Pc)),
                        np.concatenate((Vq, Vp))) if check else (K, Q, Vq)
        sel = np.flatnonzero(pos[cols] >= 0)
        a, b = join(pos[cols[sel]], piv)
        a = sel[a]
        terms = [(ids[a] * width + rows[b], [vals[a], V[b]])]
        if check:
            terms.append((ids * width + m + cols, [vals, -Dp]))
        keys, sums, _path = fold(terms, p)
        coord = keys % width < m
        outside = distinct(keys[~coord] // width)
        keys, sums = keys[coord], sums[coord]
        return keys // width, keys % width, sums, D * Dq, outside
