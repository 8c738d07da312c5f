"""Exact scalars (rationals or GF(p), p >= 5) and exact dense linear algebra.

Everything downstream computes over one of these fields; there is no
floating-point tolerance anywhere.  The bulk checks and the construction
lower these scalars to exact integers (see int_fast.py); a Subspace gives
the coordinates of a whole batch of sparse integer vectors at once
(Subspace.coords_many).

One sparse Gauss-Jordan step (_echelon_insert: reduce a vector against
sparse reduced rows, then clear its new pivot from them) is the only
elimination: Subspace.add feeds it one vector at a time, and Matrix.rref
feeds it the rows and sorts the result by pivot, so rank, kernel_basis,
solve and inverse run on it too.
"""

from fractions import Fraction

import numpy as np

from .int_fast import as_ints, compose, distinct, fold, join, rows_coo, to_field


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
            o = self._lift(other)
            return self.v == o.v
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
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            return Fraction(x)
        raise TypeError("cannot coerce %r into QQ" % (x,))

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

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

    @property
    def zero(self):
        return GFElement(self.p, 0)

    @property
    def one(self):
        return GFElement(self.p, 1)

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
        one = field.one
        for i in range(n):
            M.rows[i][i] = one
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
    def from_entries(cls, n, m, rows, cols, values, field=QQ):
        """n x m matrix with values[e] (field values) at (rows[e], cols[e]),
        zero elsewhere: a sparse result of int_fast built back."""
        M = cls.zeros(n, m, field)
        for i, j, x in zip(rows.tolist(), cols.tolist(), values):
            M.rows[i][j] = x
        return M

    @classmethod
    def from_coo(cls, n, m, lowered, field=QQ):
        """The n x m matrix of lowered COO ((rows, cols), integers, D), the
        form int_fast.rows_coo gives."""
        (rows, cols), V, D = lowered
        return cls.from_entries(n, m, rows, cols, to_field(V, D, field), field)

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
        self._shape_check(other)
        M = self.copy()
        for i in range(self.nrows):
            ra, rb = M.rows[i], other.rows[i]
            for j in range(self.ncols):
                ra[j] = ra[j] + rb[j]
        return M

    def __sub__(self, other):
        self._shape_check(other)
        M = self.copy()
        for i in range(self.nrows):
            ra, rb = M.rows[i], other.rows[i]
            for j in range(self.ncols):
                ra[j] = ra[j] - rb[j]
        return M

    def _shape_check(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError(
                "shape mismatch: %dx%d vs %dx%d"
                % (self.nrows, self.ncols, other.nrows, other.ncols)
            )

    def scale(self, c):
        c = self.field.of(c)
        M = self.copy()
        for r in M.rows:
            for j in range(self.ncols):
                r[j] = r[j] * c
        return M

    def __neg__(self):
        return self.scale(-1)

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError("inner dimensions differ")
        zero = self.field.zero
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
        t = self.field.zero
        for i in range(min(self.nrows, self.ncols)):
            t = t + self.rows[i][i]
        return t

    def is_zero(self):
        return all(not x for r in self.rows for x in r)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.nrows == other.nrows
            and self.ncols == other.ncols
            and all(self.rows[i][j] == other.rows[i][j]
                    for i in range(self.nrows) for j in range(self.ncols))
        )

    def __repr__(self):
        return "Matrix(%d x %d over %s)" % (self.nrows, self.ncols, self.field)

    def rref(self):
        """Reduced row echelon form; returns (R, pivot_columns)."""
        rows, pivots = [], []
        for r in self.rows:
            if len(pivots) == self.ncols:
                break
            _echelon_insert(rows, pivots, r)
        order = sorted(range(len(pivots)), key=pivots.__getitem__)
        R = Matrix.zeros(self.nrows, self.ncols, self.field)
        for i, k in enumerate(order):
            for j, x in rows[k].items():
                R.rows[i][j] = x
        return R, [pivots[k] for k in order]

    def rank(self):
        return len(self.rref()[1])

    def kernel_basis(self):
        """Exact basis of the right null space, as coordinate lists."""
        R, pivots = self.rref()
        pivset = set(pivots)
        free = [j for j in range(self.ncols) if j not in pivset]
        zero, one = self.field.zero, self.field.one
        basis = []
        for f in free:
            v = [zero] * self.ncols
            v[f] = one
            for prow, pcol in enumerate(pivots):
                v[pcol] = -R.rows[prow][f]
            basis.append(v)
        return basis

    def solve(self, b):
        """One exact solution of self @ x = b, or None if inconsistent."""
        if len(b) != self.nrows:
            raise ValueError("rhs length %d != %d rows" % (len(b), self.nrows))
        aug = Matrix.zeros(self.nrows, self.ncols + 1, self.field)
        for i in range(self.nrows):
            aug.rows[i][: self.ncols] = self.rows[i][:]
            aug.rows[i][self.ncols] = self.field.of(b[i])
        R, pivots = aug.rref()
        if self.ncols in pivots:
            return None
        zero = self.field.zero
        x = [zero] * self.ncols
        for prow, pcol in enumerate(pivots):
            x[pcol] = R.rows[prow][self.ncols]
        return x

    def inverse(self):
        if self.nrows != self.ncols:
            raise ValueError("not square")
        n = self.nrows
        aug = Matrix.zeros(n, 2 * n, self.field)
        one = self.field.one
        for i in range(n):
            aug.rows[i][:n] = self.rows[i][:]
            aug.rows[i][n + i] = one
        R, pivots = aug.rref()
        if pivots[:n] != list(range(n)):
            raise ValueError("matrix is singular")
        out = Matrix.zeros(n, n, self.field)
        for i in range(n):
            out.rows[i] = R.rows[i][n:]
        return out


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
    out = []
    for r in M.rows:
        out.extend(r)
    return out


def _reduce(rows, pivots, v):
    """v minus its components along the reduced rows ({column: value}, with
    pivot column pivots[k] for rows[k]), as a new dense list."""
    w = list(v)
    for row, p in zip(rows, pivots):
        c = w[p]
        if c:
            for j, b in row.items():
                w[j] = w[j] - c * b
    return w


def _echelon_insert(rows, pivots, v, of=None):
    """The one Gauss-Jordan step of the library: reduce v against the rows
    of a reduced echelon form and, if a nonzero remains, scale it to pivot 1,
    clear its pivot column from the other rows and append it.  Returns True
    if v enlarged the row space.  With `of` (the field's coercion) a
    remainder with a nonzero entry is coerced before its pivot is chosen, so
    Python ints count and divide as field values; a vector that reduces to
    zero is not coerced."""
    w = _reduce(rows, pivots, v)
    piv = next((j for j, x in enumerate(w) if x), None)
    if piv is not None and of is not None:
        w = list(map(of, w))
        piv = next((j for j, x in enumerate(w) if x), None)
    if piv is None:
        return False
    inv = w[piv]
    new = {j: x / inv for j, x in enumerate(w) if x}
    for row in rows:
        c = row.get(piv)
        if c:
            for j, b in new.items():
                x = row.get(j, 0) - c * b
                if x:
                    row[j] = x
                else:
                    del row[j]
    rows.append(new)
    pivots.append(piv)
    return True


class Subspace:
    """Span of a list of vectors with a deterministic preferred basis.

    Vectors are fed in order; each one that increases the rank is kept as a
    basis vector (so the basis is a subset of the generators, reproducible
    across runs).  Coordinates w.r.t. that preferred basis are computed from
    an invertible square submatrix selected by the first independent rows.
    """

    def __init__(self, ambient_dim, field=QQ):
        self.ambient_dim = ambient_dim
        self.field = field
        self.basis = []
        self._rref_rows = []       # rref of the kept vectors, {index: value}
        self._pivots = []          # pivot column of each rref row
        self._coord_solver = None
        self._lowered = None       # (pivot map, inverse COO, basis COO)

    @classmethod
    def from_vectors(cls, vectors, ambient_dim=None, field=QQ):
        if ambient_dim is None:
            ambient_dim = len(vectors[0])
        S = cls(ambient_dim, field)
        for v in vectors:
            S.add(v)
        return S

    @property
    def dim(self):
        return len(self.basis)

    def _check_length(self, v):
        if len(v) != self.ambient_dim:
            raise ValueError("vector of length %d, the space has ambient dimension %d"
                             % (len(v), self.ambient_dim))

    def add(self, v):
        """Add v to the span; returns True if it enlarged the space."""
        self._check_length(v)
        if not _echelon_insert(self._rref_rows, self._pivots, v, self.field.of):
            return False
        self.basis.append(list(map(self.field.of, v)))
        self._coord_solver = None
        self._lowered = None
        return True

    def contains(self, v):
        self._check_length(v)
        return vec_is_zero(_reduce(self._rref_rows, self._pivots, list(map(self.field.of, v))))

    def _build_solver(self):
        # rows of the basis matrix at the pivot coordinates are invertible
        B = Matrix([[b[p] for b in self.basis] for p in self._pivots], self.field)
        self._coord_solver = B.inverse()

    def coords(self, v, check=True):
        """Coordinates of v in the preferred basis; None if v is outside."""
        self._check_length(v)
        if self.dim == 0:
            return [] if vec_is_zero(v) else None
        if self._coord_solver is None:
            self._build_solver()
        c = self._coord_solver.apply([v[p] for p in self._pivots])
        if check:
            zero = self.field.zero
            recon = [zero] * self.ambient_dim
            for ci, b in zip(c, self.basis):
                if ci:
                    recon = [r + ci * x for r, x in zip(recon, b)]
            if not vec_eq(recon, list(v)):
                return None
        return c

    def _lower(self):
        """The pivot map (ambient index -> pivot position or -1), the COO
        integers of the pivot-row inverse Q and of P = B Q, B the basis as
        columns, each over its denominator: Q takes a vector's pivot
        entries to its coordinates, P to the vector they reconstruct."""
        if self._lowered is None:
            if self._coord_solver is None:
                self._build_solver()
            pos = np.full(self.ambient_dim, -1, dtype=np.int64)
            pos[self._pivots] = np.arange(self.dim)
            Q = rows_coo(self._coord_solver.rows, self.field)
            (K, C), V, D = rows_coo(self.basis, self.field)
            self._lowered = (pos, Q, compose(((C, K), V, D), Q, self.field.p))
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
