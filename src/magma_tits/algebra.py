"""Finite-dimensional (super)algebras given by sparse structure constants.

A SuperAlgebra is a basis with a parity vector and a sparse table
b_i b_j = sum_k c^k_ij b_k.  The checkers (super-Jacobi, automorphism,
derivation, grading, centralizer) are exact.  The super-Jacobi check is a
sparse integer contraction of the table with itself; the automorphism and
derivation checks run on integer-scaled numpy tensors over QQ.  The
pure-field super-Jacobi triple loop is kept as a test oracle.
"""

from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction

import numpy as np

from .exact import (
    QQ, FieldGF, Matrix, Subspace,
    vec_zero, vec_eq, vec_is_zero, basis_vector,
)
from .int_fast import (
    sc_to_dense_int, matrix_to_int_array, scaled_int_entries, FLOAT_EXACT_BOUND,
)

EVEN, ODD = 0, 1


class SuperAlgebra:
    """Algebra by structure constants; immutable after construction."""

    def __init__(self, basis, sc, parity=None, field=QQ, name="algebra",
                 is_lie_claimed=False, is_jordan_claimed=False,
                 is_associative_claimed=False):
        self.basis = list(basis)
        self.n = len(self.basis)
        self.field = field
        self.parity = list(parity) if parity is not None else [EVEN] * self.n
        if len(self.parity) != self.n:
            raise ValueError("parity vector has wrong length")
        self.name = name
        self.is_lie_claimed = is_lie_claimed
        self.is_jordan_claimed = is_jordan_claimed
        self.is_associative_claimed = is_associative_claimed
        self.sc = {}
        for (i, j), row in sc.items():
            clean = {}
            for k, c in row.items():
                c = field.of(c)
                if not c:
                    continue
                if self.parity[k] != (self.parity[i] + self.parity[j]) % 2:
                    raise ValueError(
                        "structure constant (%d,%d,%d) violates parity" % (i, j, k))
                clean[k] = c
            if clean:
                self.sc[(i, j)] = clean
        self._index = {lbl: i for i, lbl in enumerate(self.basis)}
        self._int_cache = None

    # -- basic queries --------------------------------------------------

    @property
    def dim(self):
        return self.n

    @property
    def dim_even(self):
        return self.parity.count(EVEN)

    @property
    def dim_odd(self):
        return self.parity.count(ODD)

    def index(self, label):
        return self._index[label]

    def e(self, label_or_index):
        """Basis coordinate vector by label or index."""
        i = label_or_index if isinstance(label_or_index, int) else self._index[label_or_index]
        return basis_vector(self.n, i, self.field)

    def product_basis(self, i, j):
        return self.sc.get((i, j), {})

    def multiply(self, x, y):
        """Bilinear extension of the structure constants to coordinate vectors."""
        if len(x) != self.n or len(y) != self.n:
            raise ValueError("operand dimension mismatch (dim %d)" % self.n)
        out = vec_zero(self.n, self.field)
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if not yj:
                    continue
                row = self.sc.get((i, j))
                if row:
                    f = xi * yj
                    for k, c in row.items():
                        out[k] = out[k] + f * c
        return out

    bracket = multiply

    def left_mult_matrix(self, x):
        """Matrix of left multiplication L_x."""
        L = Matrix.zeros(self.n, self.n, self.field)
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j in range(self.n):
                row = self.sc.get((i, j))
                if row:
                    for k, c in row.items():
                        L.rows[k][j] = L.rows[k][j] + xi * c
        return L

    def right_mult_matrix(self, x):
        """Matrix of right multiplication R_x (w -> w x)."""
        R = Matrix.zeros(self.n, self.n, self.field)
        for j, xj in enumerate(x):
            if not xj:
                continue
            for i in range(self.n):
                row = self.sc.get((i, j))
                if row:
                    for k, c in row.items():
                        R.rows[k][i] = R.rows[k][i] + xj * c
        return R

    ad_matrix = left_mult_matrix

    def format_vector(self, v):
        terms = []
        for i, c in enumerate(v):
            if c:
                terms.append("%s*%s" % (c, self.basis[i]))
        return " + ".join(terms) if terms else "0"

    def parity_of_vector(self, v):
        """Parity of a homogeneous vector (zero counts as even), None if mixed."""
        ps = {self.parity[i] for i, c in enumerate(v) if c}
        if not ps:
            return EVEN
        return ps.pop() if len(ps) == 1 else None

    # -- integer tensors for the bulk checkers --------------------------

    def _int_tensors(self):
        """(T, D) with T[i,j,k] = D*c^k_ij; rational algebras only."""
        if self._int_cache is None:
            self._int_cache = sc_to_dense_int(self.sc, self.n)
        return self._int_cache

    # -- change of basis -------------------------------------------------

    def transported(self, U, new_labels=None, new_parity=None, name=None):
        """The same algebra in the basis given by the columns of U."""
        if U.nrows != self.n or U.ncols != self.n:
            raise ValueError("change of basis must be square of the algebra dimension")
        Uinv = U.inverse()
        cols = [U.column(j) for j in range(self.n)]
        if new_parity is None:
            new_parity = []
            for c in cols:
                p = self.parity_of_vector(c)
                if p is None:
                    raise ValueError("new basis vector of mixed parity")
                new_parity.append(p)
        sc = {}
        for i in range(self.n):
            for j in range(self.n):
                prod = self.multiply(cols[i], cols[j])
                if vec_is_zero(prod):
                    continue
                coords = Uinv.apply(prod)
                row = {k: c for k, c in enumerate(coords) if c}
                if row:
                    sc[(i, j)] = row
        labels = new_labels or ["f%d" % i for i in range(self.n)]
        return SuperAlgebra(labels, sc, parity=new_parity, field=self.field,
                            name=name or (self.name + "'"))

    # -- serialization ----------------------------------------------------

    def to_json_dict(self):
        entries = []
        for (i, j), row in self.sc.items():
            for k, c in row.items():
                entries.append([i, j, k, _scalar_str(c)])
        entries.sort(key=lambda e: (e[0], e[1], e[2]))
        d = {"basis": list(self.basis), "parity": list(self.parity), "sc": entries}
        if not self.field.is_rational:
            d["field"] = self.field.p
        return d

    @classmethod
    def from_json_dict(cls, d, name="algebra"):
        field = QQ if "field" not in d else FieldGF(d["field"])
        sc = {}
        for i, j, k, s in d["sc"]:
            sc.setdefault((i, j), {})[k] = field.of(Fraction(s) if field.is_rational else s)
        return cls(d["basis"], sc, parity=d.get("parity"), field=field, name=name)

    def __repr__(self):
        if self.dim_odd:
            return "SuperAlgebra(%s, dim (%d|%d))" % (self.name, self.dim_even, self.dim_odd)
        return "SuperAlgebra(%s, dim %d)" % (self.name, self.n)


def _scalar_str(c):
    if isinstance(c, Fraction):
        return "%d/%d" % (c.numerator, c.denominator) if c.denominator != 1 else str(c.numerator)
    return str(c.v)


class LinearMap:
    """Linear map between algebras, stored as an exact matrix."""

    def __init__(self, domain, codomain, matrix, parity=EVEN):
        if matrix.ncols != domain.n or matrix.nrows != codomain.n:
            raise ValueError("matrix shape does not match the algebras")
        self.domain = domain
        self.codomain = codomain
        self.matrix = matrix
        self.parity = parity

    @classmethod
    def from_columns(cls, domain, codomain, cols, parity=EVEN):
        return cls(domain, codomain, Matrix.from_columns(cols, domain.field), parity)

    def apply(self, v):
        return self.matrix.apply(v)

    def compose(self, other):
        """self after other."""
        return LinearMap(other.domain, self.codomain, self.matrix @ other.matrix,
                         (self.parity + other.parity) % 2)

    def is_invertible(self):
        return _invertible(self.matrix)

    def __eq__(self, other):
        return isinstance(other, LinearMap) and self.matrix == other.matrix

    def __repr__(self):
        return "LinearMap(%s -> %s)" % (self.domain.name, self.codomain.name)


class Grading:
    """Assignment of a grading-group degree to each basis index."""

    def __init__(self, group, degrees):
        if group not in ("Z2xZ2", "Z3"):
            raise ValueError("unsupported grading group %r" % group)
        self.group = group
        self.degrees = list(degrees)

    def add(self, a, b):
        if self.group == "Z2xZ2":
            return ((a[0] + b[0]) % 2, (a[1] + b[1]) % 2)
        return (a + b) % 3


@dataclass
class JacobiReport:
    ok: bool
    dim: int
    triples_checked: int
    anticom_failures: list = dataclass_field(default_factory=list)
    failures: list = dataclass_field(default_factory=list)
    name: str = ""

    def __str__(self):
        if self.ok:
            return ("super-Jacobi OK on %s: dim %d, %d triples"
                    % (self.name, self.dim, self.triples_checked))
        lines = ["super-Jacobi FAILED on %s (dim %d)" % (self.name, self.dim)]
        for i, j in self.anticom_failures[:10]:
            lines.append("  not super-anticommutative on pair (%d,%d)" % (i, j))
        for i, j, k, witness in self.failures[:10]:
            lines.append("  triple (%d,%d,%d): jacobiator = %s" % (i, j, k, witness))
        return "\n".join(lines)


def _check_anticommutative(A, max_witnesses):
    failures = []
    seen = set(A.sc.keys()) | {(j, i) for (i, j) in A.sc.keys()}
    for (i, j) in sorted(seen):
        if i > j:
            continue
        row = A.sc.get((i, j), {})
        rev = A.sc.get((j, i), {})
        sign = -1 if (A.parity[i] and A.parity[j]) else 1
        # want: rev == -sign * row ; for i == j even: row must vanish
        if i == j and A.parity[i] == EVEN:
            if row:
                failures.append((i, j))
            continue
        keys = set(row) | set(rev)
        for k in keys:
            a = row.get(k, A.field.zero)
            b = rev.get(k, A.field.zero)
            if b != -(a if sign > 0 else -a):
                failures.append((i, j))
                break
        if len(failures) >= max_witnesses:
            break
    return failures


def _jacobiator(A, i, j, k):
    """Graded jacobiator of three basis elements, cyclic form."""
    p = A.parity
    s1 = -1 if (p[i] and p[k]) else 1
    s2 = -1 if (p[j] and p[i]) else 1
    s3 = -1 if (p[k] and p[j]) else 1
    bi, bj, bk = A.e(i), A.e(j), A.e(k)
    t1 = A.multiply(A.multiply(bi, bj), bk)
    t2 = A.multiply(A.multiply(bj, bk), bi)
    t3 = A.multiply(A.multiply(bk, bi), bj)
    return [s1 * a + s2 * b + s3 * c for a, b, c in zip(t1, t2, t3)]


def check_super_jacobi_reference(A, max_witnesses=10):
    """Triple-loop reference checker (pure field arithmetic)."""
    anticom = _check_anticommutative(A, max_witnesses)
    if anticom:
        return JacobiReport(False, A.n, 0, anticom_failures=anticom, name=A.name)
    n = A.n
    failures = []
    count = 0
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                count += 1
                jac = _jacobiator(A, i, j, k)
                if not vec_is_zero(jac):
                    failures.append((i, j, k, A.format_vector(jac)))
                    if len(failures) >= max_witnesses:
                        return JacobiReport(False, n, count, failures=failures, name=A.name)
    return JacobiReport(not failures, n, count, failures=failures, name=A.name)


def _join(left, right):
    """All index pairs (a, b) with left[a] == right[b], grouped by a."""
    order = np.argsort(right, kind="stable")
    lo = np.searchsorted(right[order], left, "left")
    cnt = np.searchsorted(right[order], left, "right") - lo
    a = np.repeat(np.arange(len(left)), cnt)
    offset = np.repeat(lo - (np.cumsum(cnt) - cnt), cnt)
    return a, order[np.arange(len(a)) + offset]


def check_super_jacobi(A, max_witnesses=10):
    """Exhaustive graded-Jacobi check.

    Super-anticommutativity is verified first on the sparse table.  Then,
    for pairs i <= j and every k, the coefficients of
    [[b_i,b_j],b_k] - [b_i,[b_j,b_k]] + (-1)^{|i||j|} [b_j,[b_i,b_k]]
    are summed exactly: the COO table is joined with itself on the middle
    index, keys (i,j,k,l) are packed into one int64, sorted and reduced.
    The integers are denominator-cleared constants over QQ (residues over
    GF(p)); a key collects at most 3n products, so the sums run in int64
    when 3 n max|c|^2 fits and on Python ints otherwise.  Witnesses are the
    first triples with a nonzero sum, recomputed by _jacobiator.
    """
    anticom = _check_anticommutative(A, max_witnesses)
    n = A.n
    n_triples = n * (n + 1) * (n + 2) // 6
    if anticom:
        return JacobiReport(False, n, 0, anticom_failures=anticom, name=A.name)
    if not A.sc:
        return JacobiReport(True, n, n_triples, name=A.name)

    I, J, K = np.array([(i, j, k) for (i, j), row in A.sc.items() for k in row],
                       dtype=np.int64).T
    consts = [c for row in A.sc.values() for c in row.values()]
    ints = scaled_int_entries(consts)[1] if A.field.is_rational else [c.v for c in consts]
    top = max(abs(v) for v in ints)
    V = np.array(ints, dtype=np.int64 if 3 * n * top * top <= 2 ** 63 - 1 else object)
    par = np.array(A.parity, dtype=bool)

    # [[b_i,b_j],b_k] = sum_m c_ij^m c_mk^l, i <= j
    sel = np.flatnonzero(I <= J)
    a, b = _join(K[sel], I)
    a = sel[a]
    keys = [((I[a] * n + J[a]) * n + J[b]) * n + K[b]]
    vals = [V[a] * V[b]]
    # [b_y,[b_x,b_k]] = sum_m c_xk^m c_ym^l serves both inner terms:
    # -[b_i,[b_j,b_k]] as (i, j) = (y, x) and (-1)^{|i||j|} [b_j,[b_i,b_k]]
    # as (i, j) = (x, y)
    a, b = _join(K, J)
    x, y = I[a], I[b]
    w = np.where(y <= x, -1, 0) + np.where(x <= y, np.where(par[x] & par[y], -1, 1), 0)
    keep = np.flatnonzero(w)
    a, b, x, y, w = a[keep], b[keep], x[keep], y[keep], w[keep]
    keys.append(((np.minimum(x, y) * n + np.maximum(x, y)) * n + J[a]) * n + K[b])
    vals.append(V[a] * V[b] * w)
    del a, b, x, y, w, keep, sel

    keys = np.concatenate(keys)
    if not len(keys):
        return JacobiReport(True, n, n_triples, name=A.name)
    order = np.argsort(keys)
    keys = keys[order]
    vals = np.concatenate(vals)[order]
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    sums = np.add.reduceat(vals, starts)
    if not A.field.is_rational:
        sums %= A.field.p
    bad = np.unique(keys[starts[sums != 0]] // n)

    failures = []
    for t in bad.tolist():
        i, j, k = t // (n * n), t // n % n, t % n
        jac = _jacobiator(A, i, j, k)
        if not vec_is_zero(jac):
            failures.append((i, j, k, A.format_vector(jac)))
            if len(failures) >= max_witnesses:
                break
    return JacobiReport(not failures, n, n_triples, failures=failures, name=A.name)


def _invertible(M):
    """Exact invertibility of a square Matrix."""
    if M.nrows != M.ncols:
        return False
    if M.field.is_rational:
        A, _D = matrix_to_int_array(M)
        # determinant nonzero mod p certifies invertibility; on zero fall back
        for p in (2147483629, 2147483587):
            if _rank_mod_p(A % p, p) == M.nrows:
                return True
        return M.rank() == M.nrows
    return M.rank() == M.nrows


def _rank_mod_p(A, p):
    A = A.astype(np.int64).copy()
    n, m = A.shape
    r = 0
    for c in range(m):
        if r == n:
            break
        piv = None
        for i in range(r, n):
            if A[i, c] % p:
                piv = i
                break
        if piv is None:
            continue
        A[[r, piv]] = A[[piv, r]]
        inv = pow(int(A[r, c]), -1, p)
        A[r] = (A[r] * inv) % p
        col = A[r + 1:, c].copy()
        A[r + 1:] = (A[r + 1:] - np.outer(col, A[r])) % p
        r += 1
    return r


def _tensor_fast_ok(A, M):
    if not A.field.is_rational:
        return False
    T, _Dt = A._int_tensors()
    Am, Dm = matrix_to_int_array(M)
    tmax = float(np.abs(T).max(initial=0))
    mmax = float(np.abs(Am).max(initial=0))
    return ((A.n ** 2) * mmax * mmax * tmax < FLOAT_EXACT_BOUND
            and A.n * tmax * mmax * Dm < FLOAT_EXACT_BOUND)


def is_automorphism(A, f, check_invertible=True):
    """True iff f is an invertible even map with f(xy) = f(x)f(y)."""
    if f.parity != EVEN:
        return False
    M = f.matrix
    if M.nrows != A.n or M.ncols != A.n:
        return False
    if check_invertible and not _invertible(M):
        return False
    if _tensor_fast_ok(A, M):
        T, Dt = A._int_tensors()
        Am, Dm = matrix_to_int_array(M)
        Tf = T.astype(np.float64)
        Mf = Am.astype(np.float64)
        lhs = np.tensordot(Mf, Tf, axes=(0, 0))          # (i, q, k)
        lhs = np.tensordot(Mf, lhs, axes=(0, 1))         # (j, i, k)
        lhs = lhs.transpose(1, 0, 2)
        rhs = np.tensordot(Tf, Mf, axes=(2, 1)) * Dm     # (i, j, k) scaled to match
        return bool(np.array_equal(lhs, rhs))
    cols = [M.column(j) for j in range(A.n)]
    for i in range(A.n):
        for j in range(A.n):
            lhs = M.apply(A.multiply(A.e(i), A.e(j)))
            rhs = A.multiply(cols[i], cols[j])
            if not vec_eq(lhs, rhs):
                return False
    return True


def is_derivation(A, f):
    """True iff f(xy) = f(x)y + (-1)^{|f||x|} x f(y) on all basis pairs."""
    M = f.matrix
    if M.nrows != A.n or M.ncols != A.n:
        return False
    if _tensor_fast_ok(A, M):
        T, _Dt = A._int_tensors()
        Am, _Dm = matrix_to_int_array(M)
        Tf = T.astype(np.float64)
        Mf = Am.astype(np.float64)
        lhs = np.tensordot(Tf, Mf, axes=(2, 1))                    # f(b_i b_j)
        r1 = np.tensordot(Mf, Tf, axes=(0, 0))                     # (i, j, k)
        r2 = np.tensordot(Mf, Tf.transpose(1, 0, 2), axes=(0, 0))  # (j, i, k)
        r2 = r2.transpose(1, 0, 2)
        if f.parity == ODD:
            signs = np.where(np.array(A.parity) != 0, -1.0, 1.0)
            r2 = r2 * signs[:, None, None]
        return bool(np.array_equal(lhs, r1 + r2))
    cols = [M.column(j) for j in range(A.n)]
    for i in range(A.n):
        si = -1 if (f.parity and A.parity[i]) else 1
        for j in range(A.n):
            lhs = M.apply(A.multiply(A.e(i), A.e(j)))
            rhs = A.multiply(cols[i], A.e(j))
            t2 = A.multiply(A.e(i), cols[j])
            if si < 0:
                rhs = [a - b for a, b in zip(rhs, t2)]
            else:
                rhs = [a + b for a, b in zip(rhs, t2)]
            if not vec_eq(lhs, rhs):
                return False
    return True


def check_grading(A, grading):
    """True iff every nonzero structure constant respects the degree map."""
    deg = grading.degrees
    if len(deg) != A.n:
        raise ValueError("grading has wrong length")
    for (i, j), row in A.sc.items():
        want = grading.add(deg[i], deg[j])
        for k in row:
            if deg[k] != want:
                return False
    return True


def centralizer(L, S):
    """Basis of {x in L : [s, x] = 0 for all s in S}."""
    if not S:
        return [L.e(i) for i in range(L.n)]
    rows = []
    for s in S:
        rows.extend(L.left_mult_matrix(s).rows)
    return Matrix(rows, L.field).kernel_basis()
