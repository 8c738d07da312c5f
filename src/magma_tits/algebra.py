"""Finite-dimensional (super)algebras given by sparse structure constants.

A SuperAlgebra is a basis with a parity vector and a sparse table
b_i b_j = sum_k c^k_ij b_k.  The checkers (super-Jacobi, automorphism,
derivation, homomorphism, grading, centralizer) are exact.  The
super-Jacobi check is a sparse integer contraction of the table with
itself, and the map checks (map_failures) one of the table with the map's
matrix, both summed by int_fast.fold.  The pure-field super-Jacobi triple
loop is kept as a test oracle.
"""

from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction

import numpy as np

from .exact import (
    QQ, FieldGF, Matrix, Subspace,
    vec_zero, vec_is_zero, basis_vector,
)
from .int_fast import (bilinear, commutators, distinct, fold, join, matrices_coo, matvec,
                       rows_coo, table_coo, to_field)

EVEN, ODD = 0, 1


def accumulate(sc, i, j, k, c):
    """sc[(i, j)][k] += c on a table under construction; SuperAlgebra drops
    the zero sums and empty rows."""
    if c:
        row = sc.setdefault((i, j), {})
        row[k] = row[k] + c if k in row else c


def sc_from_coo(I, J, K, values, sc=None):
    """Add the entries c^{K[e]}_{I[e] J[e]} = values[e], whose index triples
    are distinct, to the table sc (a new one when None)."""
    sc = {} if sc is None else sc
    for i, j, k, c in zip(I.tolist(), J.tolist(), K.tolist(), values):
        sc.setdefault((i, j), {})[k] = c
    return sc


def dense_entries(shape, cols, values, zero):
    """Object array of field values: values at the index columns, zero elsewhere."""
    out = np.full(shape, zero, dtype=object)
    out[tuple(cols)] = values
    return out


def nonzero_entries(t, depth=None):
    """Index columns and values of the nonzero entries of an object array
    of field values, or of nested lists `depth` levels deep."""
    if isinstance(t, np.ndarray):
        nz = np.nonzero(t)
        return nz, t[nz].tolist()
    entries = [((), t)]
    for _level in range(depth):
        entries = [(ix + (i,), c) for ix, sub in entries for i, c in enumerate(sub)]
    entries = [(ix, c) for ix, c in entries if c]
    cols = np.array([ix for ix, _c in entries], dtype=np.int64).reshape(-1, depth)
    return tuple(cols.T), [c for _ix, c in entries]


def outer_entries(A, B, scale=None):
    """Index columns of A and of B at every pair of their entries, and the
    products of the values (times scale): the COO of an outer product."""
    (ca, va), (cb, vb) = A, B
    ia = np.repeat(np.arange(len(va)), len(vb))
    ib = np.tile(np.arange(len(vb)), len(va))
    vals = [a * b for a in va for b in vb]
    return [c[ia] for c in ca], [c[ib] for c in cb], vals if scale is None else [
        scale * v for v in vals]


def act_on_tensor(sc, acts, op_par, vec_par, copies, op, tensor):
    """Add [d_s, w_c x v_j] = w_c x d_s(v_j) and the mirrored bracket, with
    the Koszul sign, to the table sc for operators d_s acting on the v
    factor of `copies` tensor copies; acts[s, j, k] is the v_k coefficient
    of d_s(v_j), op(s) and tensor(c, j) map to the table's indices."""
    (s, j, k), vals = nonzero_entries(acts)
    c = np.tile(np.arange(copies), len(vals))
    s, j, k = (np.repeat(x, copies) for x in (s, j, k))
    vals = [v for v in vals for _c in range(copies)]
    odd = (np.asarray(op_par, dtype=bool)[s] & np.asarray(vec_par, dtype=bool)[j]).tolist()
    sc_from_coo(op(s), tensor(c, j), tensor(c, k), vals, sc)
    sc_from_coo(tensor(c, j), op(s), tensor(c, k), [v if o else -v for v, o in zip(vals, odd)],
                sc)


def commutator_table(mats, span, odd=None, check=True):
    """Structure constants of the graded commutators of a list of n x n
    matrices in the coordinates of span, a Subspace of flattened n x n
    matrices, and the pairs (s, t) whose commutator lies outside it.

    One int_fast.commutators join and fold for all pairs, then one batch
    of Subspace.coords_many (check=False projects through the pivot rows
    and reports no pair)."""
    m = len(mats)
    if not m:
        return {}, []
    n = mats[0].nrows
    (S, R, C), V, D = matrices_coo(mats, span.field)
    odd = np.zeros(m, dtype=bool) if odd is None else np.array(odd, dtype=bool)
    keys, sums, _path = commutators(S, R, C, V, odd, n,
                                    None if span.field.is_rational else span.field.p)
    ids, ks, values, outside = span.coords_many(keys // (n * n), keys % (n * n), sums,
                                                D * D, check)
    return sc_from_coo(ids // m, ids % m, ks, values), [divmod(i, m) for i in outside.tolist()]


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

    # -- change of basis -------------------------------------------------

    def transported(self, U, new_labels=None, new_parity=None, name=None):
        """The same algebra in the basis given by the columns of U: the
        products of all column pairs by int_fast.bilinear, their
        coordinates U^{-1} by int_fast.matvec."""
        if U.nrows != self.n or U.ncols != self.n:
            raise ValueError("change of basis must be square of the algebra dimension")
        f, n = self.field, self.n
        p = None if f.is_rational else f.p
        cols = [U.column(j) for j in range(n)]
        if new_parity is None:
            new_parity = [self.parity_of_vector(c) for c in cols]
            if None in new_parity:
                raise ValueError("new basis vector of mixed parity")
        T, Vt, Dt = table_coo(self.sc, f)
        X, Vx, Dx = rows_coo(cols, f)
        Ui, Vu, Du = rows_coo(U.inverse().rows, f)
        (i, j, k), sums, _path = bilinear((T, Vt), (X, Vx), (X, Vx), p)
        (ij, l), sums = matvec((Ui, Vu), ((i * n + j, k), sums), p)
        sc = sc_from_coo(ij // n, ij % n, l, to_field(sums, Dt * Dx * Dx * Du, f))
        labels = new_labels or ["f%d" % i for i in range(n)]
        return SuperAlgebra(labels, sc, parity=new_parity, field=f,
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
    path: str = ""      # arithmetic of the final sum, "int64" or "python-int"; "" if none ran

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


def check_super_jacobi(A, max_witnesses=10):
    """Exhaustive graded-Jacobi check.

    Super-anticommutativity is verified first on the sparse table.  Then,
    for pairs i <= j and every k, the coefficients of
    [[b_i,b_j],b_k] - [b_i,[b_j,b_k]] + (-1)^{|i||j|} [b_j,[b_i,b_k]]
    are summed exactly by int_fast.fold: the COO table is joined with
    itself on the middle index and keys (i,j,k,l) are packed into one
    int64.  The integers are denominator-cleared constants over QQ
    (residues over GF(p), sums reduced mod p).  Witnesses are the first
    triples with a nonzero sum, recomputed by _jacobiator.
    """
    anticom = _check_anticommutative(A, max_witnesses)
    n = A.n
    n_triples = n * (n + 1) * (n + 2) // 6
    if anticom:
        return JacobiReport(False, n, 0, anticom_failures=anticom, name=A.name)
    if not A.sc:
        return JacobiReport(True, n, n_triples, name=A.name)

    (I, J, K), V, _D = table_coo(A.sc, A.field)
    par = np.array(A.parity, dtype=bool)

    # [[b_i,b_j],b_k] = sum_m c_ij^m c_mk^l, i <= j
    sel = np.flatnonzero(I <= J)
    a, b = join(K[sel], I)
    a = sel[a]
    terms = [(((I[a] * n + J[a]) * n + J[b]) * n + K[b], [V[a], V[b]])]
    # [b_y,[b_x,b_k]] = sum_m c_xk^m c_ym^l serves both inner terms:
    # -[b_i,[b_j,b_k]] as (i, j) = (y, x) and (-1)^{|i||j|} [b_j,[b_i,b_k]]
    # as (i, j) = (x, y)
    a, b = join(K, J)
    x, y = I[a], I[b]
    w = np.where(y <= x, -1, 0) + np.where(x <= y, np.where(par[x] & par[y], -1, 1), 0)
    keep = np.flatnonzero(w)
    a, b, x, y, w = a[keep], b[keep], x[keep], y[keep], w[keep]
    terms.append((((np.minimum(x, y) * n + np.maximum(x, y)) * n + J[a]) * n + K[b],
                  [V[a], V[b], w]))
    del a, b, x, y, w, keep, sel

    keys, _sums, path = fold(terms, None if A.field.is_rational else A.field.p)
    failures = []
    for t in distinct(keys // n).tolist():
        i, j, k = t // (n * n), t // n % n, t % n
        jac = _jacobiator(A, i, j, k)
        if not vec_is_zero(jac):
            failures.append((i, j, k, A.format_vector(jac)))
            if len(failures) >= max_witnesses:
                break
    return JacobiReport(not failures, n, n_triples, failures=failures, name=A.name,
                        path=path)


def _invertible(M):
    """Exact invertibility of a square Matrix."""
    return M.nrows == M.ncols and M.rank() == M.nrows


def map_failures(src, tgt, M, derivation=False, odd=False, max_witnesses=None):
    """Sorted pairs (i, j) with M(b_i b_j) != M(b_i) M(b_j), or, as a
    derivation of src = tgt of parity |M| = odd, with
    M(b_i b_j) != M(b_i) b_j + (-1)^{|M||i|} b_i M(b_j); the first
    max_witnesses of them, all when None.

    One sparse exact contraction: the COO tables of src, tgt and M are
    joined on their shared indices, keys (i, j, k) are packed into one
    int64 and int_fast.fold sums the terms.  Over QQ the terms are scaled
    to one denominator (D_m D_t on M(b_i b_j) and D_s on M(b_i) M(b_j);
    D_t and D_s for a derivation); over GF(p) they are residues and fold
    reduces the sums mod p.  ValueError unless M is tgt.n x src.n.
    """
    if M.nrows != tgt.n or M.ncols != src.n:
        raise ValueError("map matrix is %dx%d, the algebras need %dx%d"
                         % (M.nrows, M.ncols, tgt.n, src.n))
    field, n, nt = src.field, src.n, tgt.n
    table = table_coo(src.sc, field)
    (I, J, K), Vs, Ds = table
    (It, Jt, Kt), Vt, Dt = table if tgt is src else table_coo(tgt.sc, field)
    (R, C), Vm, Dm = rows_coo(M.rows, field)

    def key(i, j, k):
        return (i * n + j) * nt + k

    # M(b_i b_j) = sum_k c^k_ij M(b_k)
    a, b = join(K, C)
    terms = [(key(I[a], J[a], R[b]), [Vs[a], Vm[b], Dt if derivation else Dm * Dt])]
    if derivation:
        # M(b_i) b_j = sum_p M_pi c^k_pj and b_i M(b_j) = sum_q M_qj c^k_iq
        a, b = join(It, R)
        terms.append((key(C[b], Jt[a], Kt[a]), [Vm[b], Vt[a], -Ds]))
        a, b = join(Jt, R)
        sign = np.where(np.array(tgt.parity, dtype=bool)[It[a]] & bool(odd), 1, -1)
        terms.append((key(It[a], C[b], Kt[a]), [Vm[b], Vt[a], sign, Ds]))
    else:
        # M(b_i) M(b_j) = sum_{p,q} M_pi M_qj c^k_pq
        a, b = join(It, R)
        t, c = join(Jt[a], R)
        a, b = a[t], b[t]
        terms.append((key(C[b], C[c], Kt[a]), [Vm[b], Vm[c], Vt[a], -Ds]))
    keys, _sums, _path = fold(terms, None if field.is_rational else field.p)
    pairs = distinct(keys // nt)[:max_witnesses].tolist()
    return [(ij // n, ij % n) for ij in pairs]


def is_automorphism(A, f):
    """True iff f is an invertible even map with f(xy) = f(x)f(y)."""
    M = f.matrix
    return (f.parity == EVEN and M.nrows == A.n and M.ncols == A.n and _invertible(M)
            and not map_failures(A, A, M))


def is_derivation(A, f):
    """True iff f(xy) = f(x)y + (-1)^{|f||x|} x f(y) on all basis pairs."""
    M = f.matrix
    return (M.nrows == A.n and M.ncols == A.n
            and not map_failures(A, A, M, derivation=True, odd=f.parity == ODD))


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
