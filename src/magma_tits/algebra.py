"""Finite-dimensional (super)algebras given by sparse structure constants.

A SuperAlgebra is a basis with a parity vector and a read-only sparse
table b_i b_j = sum_k c^k_ij b_k, kept as canonical integer COO (coo,
int_fast.canonical): builders hand their blocks to SuperAlgebra.from_blocks,
a hand-written table is lowered once, and the field-valued table (sc) is
built from coo on each read, not kept.  The checkers (super-Jacobi,
automorphism, derivation, homomorphism, grading, centralizer) are exact.
The super-Jacobi check is a sparse integer contraction of the table with
itself onto the jacobiators of the sorted triples i <= j <= k, the map
checks (lowered_map_failures) one of the table with the lowered matrix
that a LinearMap holds, the graded (anti)symmetry check
(transpose_failures) one fold of the table against its signed transpose
and the multiplication matrices (left_mults) one join and fold, all
summed by int_fast.fold.  The pure-field super-Jacobi triple loop is a
test oracle.
"""

from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from functools import cached_property, wraps
from types import MappingProxyType

import numpy as np

from .exact import (QQ, FieldGF, Matrix, Subspace, basis_vector, coo_rows, echelon, inverse_coo,
                    kernel_of, solution, vec_zero)
from .int_fast import (OutOfRange, bilinear, canonical, commutators, distinct, fold,
                       fold_blocks, join, joined, matvec, outer, reduced, rows_coo, table_coo,
                       to_field)

EVEN, ODD = 0, 1


def once_per_factor(build):
    """build(F), run once per object F and kept on it (as the attribute
    _<name of build>): what every T(C, J) over one C or one J shares."""
    attr = "_" + build.__name__

    @wraps(build)
    def kept(F):
        if attr not in F.__dict__:
            setattr(F, attr, build(F))
        return F.__dict__[attr]
    return kept


def sc_from_coo(I, J, K, values):
    """The table {(i, j): {k: c}} of the entries c^{K[e]}_{I[e] J[e]} =
    values[e] (field values), whose index triples are distinct: the form
    of SuperAlgebra.sc and of the B1Data maps."""
    sc = {}
    for i, j, k, c in zip(I.tolist(), J.tolist(), K.tolist(), values):
        sc.setdefault((i, j), {})[k] = c
    return sc


def outer_block(A, B, place, factor=1, D=1):
    """The int_fast.canonical block of an outer product of two lowered
    tables (index columns, integers, denominator): every entry x of A and
    y of B give the product of their integers times factor / D at
    place(columns of A at x, columns of B at y), an index triple."""
    (ca, Va, Da), (cb, Vb, Db) = A, B
    x, y = outer(len(Va), len(Vb))
    return (*place(*(c[x] for c in ca), *(c[y] for c in cb)), [Va[x], Vb[y], factor], Da * Db * D)


def tensor_action(acts, op_par, vec_par, copies, op, tensor):
    """The int_fast.canonical blocks of [d_s, w_c x v_j] = w_c x d_s(v_j)
    and of the mirrored bracket, with the Koszul sign, for operators d_s
    acting on the v factor of `copies` tensor copies: acts is the lowered
    table ((s, j, k), integers, D) of the v_k coefficient of d_s(v_j);
    op(s) and tensor(c, j) map to the table's indices."""
    (s, j, k), V, D = acts
    x, c = outer(len(V), copies)
    s, j, k, V = s[x], j[x], k[x], V[x]
    odd = np.asarray(op_par, dtype=bool)[s] & np.asarray(vec_par, dtype=bool)[j]
    return [(op(s), tensor(c, j), tensor(c, k), [V], D),
            (tensor(c, j), op(s), tensor(c, k), [V, np.where(odd, 1, -1)], D)]


def commutator_table(mats, m, n, span, odd=None):
    """Structure constants of the graded commutators of m n x n matrices,
    given lowered as ((S, R, C), integers, D) (int_fast.matrices_coo), in
    the coordinates of span, a Subspace of flattened n x n matrices, as COO
    columns (s, t, k), integers and their denominator of c^k_st, and the
    pairs (s, t) whose commutator lies outside span (its coordinates are
    then those of the projection through the pivot rows).

    One int_fast.commutators join and fold for all pairs, then one batch
    of Subspace.coords_many."""
    if not m:
        none = np.zeros(0, dtype=np.int64)
        return (none, none, none), none, 1, []
    (S, R, C), V, D = mats
    odd = np.zeros(m, dtype=bool) if odd is None else np.array(odd, dtype=bool)
    keys, sums, _path = commutators(S, R, C, V, odd, n, span.field.p)
    ids, ks, ints, den, outside = span.coords_many(keys // (n * n), keys % (n * n), sums, D * D)
    return (ids // m, ids % m, ks), ints, den, [divmod(i, m) for i in outside.tolist()]


class DerivationSpace:
    """Span of the inner derivations of an algebra on the pairs of m
    generators (der C: D_{a,b}, composition.derivation_algebra; d_{J,J}:
    d_{x,y} = [L_x, L_y], tits.inner_derivation_space).

    `pairs` is the batch of every pair as Subspace.coords_many takes it:
    ids j * m + l in increasing order, flat index r * n + c of an n x n
    matrix, integers and their denominator.  The pairs j <= l are fed in
    lexicographic order; those that enlarge the span are kept, with their
    `generators` (j, l) and `parities` (of each pair, the sum of its
    generators' parities).  `lowered` holds the kept pairs renumbered
    0, 1, ... as the lowered list ((S, R, C), integers, D) in lowest terms,
    what int_fast.matrices_coo gives for their matrices; the Matrix list
    `matrices` is built from it on first read.  `bracket` is the
    commutator_table of `lowered`, computed once."""

    def __init__(self, pairs, m, n, field, parities):
        self.pairs = pairs
        self.m, self.n = m, n
        self.field = field
        self.span = Subspace(n * n, field)
        ids, rc, d, D = pairs
        # the diagonal d_{x,x} = 2 L_x^2 of d_{J,J} survives for odd x
        upper = np.flatnonzero(ids // m <= ids % m)
        kept = self.span.add_many(ids[upper], rc[upper], d[upper], D)
        self.generators = [divmod(k, m) for k in kept]
        self.parities = [(parities[j] + parities[l]) % 2 for j, l in self.generators]
        number = np.full(m * m, -1, dtype=np.int64)
        number[kept] = np.arange(len(kept))
        sel = np.flatnonzero(number[ids] >= 0)
        self.lowered = ((number[ids[sel]], rc[sel] // n, rc[sel] % n), *reduced(d[sel], D))

    @property
    def dim(self):
        return self.span.dim

    @cached_property
    def matrices(self):
        """The kept inner derivations as n x n Matrices."""
        (S, R, C), V, D = self.lowered
        bounds = np.searchsorted(S, np.arange(self.dim + 1)).tolist()
        return [Matrix.from_coo(self.n, self.n, ((R[lo:hi], C[lo:hi]), V[lo:hi], D), self.field)
                for lo, hi in zip(bounds, bounds[1:])]

    @cached_property
    def bracket(self):
        """commutator_table of the kept matrices in the span's coordinates:
        ((s, t, k), integers, denominator, pairs outside the span)."""
        return commutator_table(self.lowered, self.dim, self.n, self.span, self.parities)

    def pair_sums(self, A, B):
        """The sums sum_{j,l} a_j b_l M_{j,l} of the matrices M_{j,l} on
        the pairs of generators (pairs), for the lowered coefficient
        vectors a_t of A and b_t of B ((t, j), integers, D), as a
        Subspace.coords_many batch (t, flat index, integers, D): the entries
        of a_t and b_t joined on t, then with the pair ids, and one fold."""
        ids, rc, d, D = self.pairs
        ((ta, ja), Va, Da), ((tb, lb), Vb, Db) = A, B
        x, y = join(ta, tb)
        u, e = join(ja[x] * self.m + lb[y], ids)
        x, y, size = x[u], y[u], self.n * self.n
        keys, sums, _path = fold([(ta[x] * size + rc[e], [Va[x], Vb[y], d[e]])], self.field.p)
        return keys // size, keys % size, sums, Da * Db * D


class SuperAlgebra:
    """Algebra by structure constants; immutable after construction.

    The table is kept as its canonical COO `coo`: sorted index columns
    (I, J, K), nonzero integers V and their denominator D, with
    c^{K[e]}_{I[e] J[e]} = V[e] / D, D the lcm of the reduced denominators
    (1 over GF(p), where V holds residues).  The field-valued table `sc` is
    built from it on each read, not kept; the rows that `multiply` reads, once.
    An algebra records no claim about itself (Lie, Jordan, associative):
    every such property is checked on the table."""

    def __init__(self, basis, sc, parity=None, field=QQ, name="algebra"):
        """A hand-written table {(i, j): {k: c}}, c anything field.of takes,
        lowered once and validated as from_coo does."""
        cols, V, D = table_coo(sc, field)
        self._setup(basis, [(*cols, [V], D)], parity, field, name)

    @classmethod
    def from_coo(cls, basis, cols, V, D=1, parity=None, field=QQ, name="algebra"):
        """The algebra with c^{K[e]}_{I[e] J[e]} = V[e] / D summed over e,
        for cols = (I, J, K): from_blocks of one block."""
        return cls.from_blocks(basis, [(*cols, [V], D)], parity, field, name)

    @classmethod
    def from_blocks(cls, basis, blocks, parity=None, field=QQ, name="algebra"):
        """The algebra whose table sums the blocks (I, J, K, factors, D) of
        int_fast.canonical.  ValueError naming the lexicographically first
        index outside range(n), or the first nonzero constant that violates
        parity, or for an input that canonical rejects."""
        A = cls.__new__(cls)
        A._setup(basis, blocks, parity, field, name)
        return A

    def _setup(self, basis, blocks, parity, field, name):
        """Validate and store the table: int_fast.canonical, then parity."""
        self.basis = list(basis)
        self.n = n = len(self.basis)
        self.field = field
        self.parity = list(parity) if parity is not None else [EVEN] * n
        if len(self.parity) != n:
            raise ValueError("parity vector has wrong length")
        for i, par in enumerate(self.parity):
            if par not in (EVEN, ODD):
                raise ValueError("parity %r of basis element %d is not 0 or 1" % (par, i))
        self.name = name
        self._index = {lbl: i for i, lbl in enumerate(self.basis)}
        try:
            self.coo = canonical(blocks, (n, n, n), field.p)
        except OutOfRange as err:
            raise ValueError("structure constant (%d,%d,%d) has an index outside range(%d)"
                             % (*err.entry, n)) from None
        (I, J, K), _V, _D = self.coo
        par = np.array(self.parity, dtype=np.int64)
        bad = np.flatnonzero(par[K] != par[I] ^ par[J])
        if len(bad):
            e = bad[0]
            raise ValueError("structure constant (%d,%d,%d) violates parity" % (I[e], J[e], K[e]))

    @cached_property
    def _rows(self):
        """The table as plain dicts {(i, j): {k: c}}, for the inner loop of
        multiply; product_basis hands out read-only rows of it."""
        (I, J, K), V, D = self.coo
        return sc_from_coo(I, J, K, to_field(V, D, self.field))

    @property
    def sc(self):
        """A read-only table {(i, j): {k: c}} of field values, built from coo on each read."""
        (I, J, K), V, D = self.coo
        rows = sc_from_coo(I, J, K, to_field(V, D, self.field))
        return MappingProxyType({ij: MappingProxyType(row) for ij, row in rows.items()})

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
        """The read-only row {k: c} of b_i b_j."""
        return MappingProxyType(self._rows.get((i, j), {}))

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
                row = self._rows.get((i, j))
                if row:
                    f = xi * yj
                    for k, c in row.items():
                        out[k] = out[k] + f * c
        return out

    bracket = multiply

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

    def transported(self, U, new_labels=None, name=None):
        """The same algebra in the basis given by the columns of the Matrix
        U: transported_lowered of U and of U^{-1}, the inverse_coo of U's
        rows, each lowered once."""
        if U.nrows != self.n or U.ncols != self.n:
            raise ValueError("change of basis must be square of the algebra dimension")
        lowered = rows_coo(U.rows, self.field)
        return self.transported_lowered(lowered, inverse_coo(lowered, self.n, self.field.p),
                                        new_labels, name)

    def transported_lowered(self, U, U_inv, new_labels=None, name=None):
        """transported for U and U^{-1} given as lowered n x n matrices
        ((rows, columns), integers, D), as int_fast.rows_coo gives them:
        the products of all column pairs of U by int_fast.bilinear, their
        coordinates U^{-1} by int_fast.matvec.  Each new basis vector takes
        the parity of its support; ValueError for one of mixed parity."""
        f, n = self.field, self.n
        p = f.p
        (R, C), Vx, Dx = U
        odd = np.bincount(C, weights=np.asarray(self.parity)[R], minlength=n)
        if np.any((odd > 0) & (odd < np.bincount(C, minlength=n))):
            raise ValueError("new basis vector of mixed parity")
        T, Vt, Dt = self.coo
        X = (C, R)                     # column j of U is vector j
        Ui, Vu, Du = U_inv
        (i, j, k), sums, _path = bilinear((T, Vt), (X, Vx), (X, Vx), p)
        (ij, l), sums = matvec((Ui, Vu), ((i * n + j, k), sums), p)
        return SuperAlgebra.from_coo(new_labels or ["f%d" % i for i in range(n)],
                                     (ij // n, ij % n, l), sums, Dt * Dx * Dx * Du,
                                     parity=[ODD if x else EVEN for x in odd.tolist()], field=f,
                                     name=name or (self.name + "'"))

    # -- serialization ----------------------------------------------------

    def to_json_dict(self):
        (I, J, K), V, D = self.coo
        entries = [[i, j, k, _scalar_str(c)] for i, j, k, c in
                   zip(I.tolist(), J.tolist(), K.tolist(), to_field(V, D, self.field))]
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


def lowered_matrix(M, nrows, ncols, field, what="map"):
    """The Matrix M lowered once by int_fast.rows_coo; ValueError unless
    M is nrows x ncols over field (what names it in the message)."""
    if (M.nrows, M.ncols) != (nrows, ncols):
        raise ValueError("%s matrix is %dx%d, the algebras need %dx%d"
                         % (what, M.nrows, M.ncols, nrows, ncols))
    if M.field != field:
        raise ValueError("%s matrix over %s, the algebra over %s" % (what, M.field, field))
    return rows_coo(M.rows, field)


class LinearMap:
    """Linear map between algebras, held lowered: `coo` is its codomain.n x
    domain.n matrix ((rows, columns), integers, D) in the canonical form of
    int_fast.canonical, read-only.  Builders hand their blocks to
    from_blocks, the constructor lowers a Matrix once, and the Matrix
    `matrix` is built from coo on first read."""

    def __init__(self, domain, codomain, matrix, parity=EVEN):
        (R, C), V, D = lowered_matrix(matrix, codomain.n, domain.n, domain.field)
        self._setup(domain, codomain, [(R, C, [V], D)], parity)

    @classmethod
    def from_coo(cls, domain, codomain, lowered, parity=EVEN):
        """The map with V[e] / D at (R[e], C[e]), summed over e, for
        lowered = ((R, C), V, D): from_blocks of one block."""
        (R, C), V, D = lowered
        return cls.from_blocks(domain, codomain, [(R, C, [V], D)], parity)

    @classmethod
    def from_blocks(cls, domain, codomain, blocks, parity=EVEN):
        """The map that sums the blocks (rows, columns, factors, D) of
        int_fast.canonical; ValueError for an entry outside the matrix or
        an input that canonical rejects."""
        f = cls.__new__(cls)
        f._setup(domain, codomain, blocks, parity)
        return f

    def _setup(self, domain, codomain, blocks, parity):
        m, n = codomain.n, domain.n
        if codomain.field != domain.field:
            raise ValueError("map from an algebra over %s to one over %s"
                             % (domain.field, codomain.field))
        try:
            self.coo = canonical(blocks, (m, n), domain.field.p)
        except OutOfRange:
            raise ValueError("map entry outside a %dx%d matrix" % (m, n)) from None
        self.domain, self.codomain, self.parity = domain, codomain, parity

    @cached_property
    def matrix(self):
        """The map as a Matrix, built from coo on first read."""
        return Matrix.from_coo(self.codomain.n, self.domain.n, self.coo, self.domain.field)

    def apply(self, v):
        return self.matrix.apply(v)

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


def transpose_failures(table, parity, sign, field):
    """Sorted pairs (i, j), i <= j, with c^k_ij != sign (-1)^{|i||j|} c^k_ji
    for some k, in a COO table ((I, J, K), V) over field, such as SuperAlgebra.coo.

    One fold (mod p over GF(p)) of the entries with i <= j at (i, j, k)
    and those with j <= i at (j, i, k) times -sign (-1)^{|i||j|}; k is
    packed with its own width, so it may lie outside range(len(parity))."""
    (I, J, K), V = table
    n, nk = len(parity), int(K.max()) + 1 if len(K) else 1
    odd = np.asarray(parity, dtype=bool)
    up, down = np.flatnonzero(I <= J), np.flatnonzero(J <= I)
    s = np.where(odd[I[down]] & odd[J[down]], sign, -sign)
    keys, _sums, _path = fold([((I[up] * n + J[up]) * nk + K[up], [V[up]]),
                               ((J[down] * n + I[down]) * nk + K[down], [V[down], s])], field.p)
    return [divmod(ij, n) for ij in distinct(keys // nk).tolist()]


def _jacobiator(A, sc, i, j, k):
    """Cyclic graded jacobiator of three basis elements, read off sc (A.sc,
    read once by the caller): the sum of (-1)^{|x||z|} [[b_x, b_y], b_z] over
    the cyclic orders (x, y, z) of (i, j, k).  Only the two test oracles call it."""
    p, out = A.parity, [A.field.zero] * A.n
    for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
        s = -1 if p[x] and p[z] else 1
        for m, c in sc.get((x, y), {}).items():
            for l, d in sc.get((m, z), {}).items():
                out[l] = out[l] + s * c * d
    return out


def check_super_jacobi_reference(A, max_witnesses=10):
    """Test oracle of check_super_jacobi: after transpose_failures, the
    cyclic _jacobiator of every triple i <= j <= k in field arithmetic,
    stopping at the max_witnesses-th failing triple (the first one when
    max_witnesses is 0)."""
    n = A.n
    anticom = transpose_failures(A.coo[:2], A.parity, -1, A.field)
    if anticom:
        return JacobiReport(False, n, 0, anticom_failures=anticom[:max_witnesses], name=A.name)
    failures, count, sc = [], 0, A.sc
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                count += 1
                jac = _jacobiator(A, sc, i, j, k)
                if any(jac):
                    failures.append((i, j, k, A.format_vector(jac)))
                    if len(failures) >= max(max_witnesses, 1):
                        return JacobiReport(False, n, count, failures=failures[:max_witnesses],
                                            name=A.name)
    return JacobiReport(not failures, n, count, failures=failures, name=A.name)


def _jacobi_weight(code):
    """Weight of the term [[b_x,b_y],b_z], x <= y, in the jacobiator of
    (i,j,k) = sorted(x,y,z),
    J(i,j,k) = (-1)^{|i||k|} [[b_i,b_j],b_k] + (-1)^{|i||j|} [[b_j,b_k],b_i]
               - (-1)^{|j||k|+|i||k|} [[b_i,b_k],b_j]:
    the sum of the coefficients of the roles it fills, given by its case
    code r1 | r2 << 1 | r3 << 2 | |x| << 3 | |y| << 4 | |z| << 5, with
    r1 = y <= z, r2 = z <= x and r3 = x <= z <= y (ties fill several)."""
    r1, r2, r3, px, py, pz = ((code >> b) & 1 for b in range(6))
    return (r1 + r2) * (-1) ** (px * pz) - r3 * (-1) ** (py * (px + pz))


_JACOBI_WEIGHTS = np.array([_jacobi_weight(c) for c in range(64)], dtype=np.int64)


def _sorted_triple_terms(x, y, z, par, n):
    """Packed sorted triples (i * n + j) * n + k of the terms
    [[b_x,b_y],b_z], x <= y, and their weights, read by case code from
    _JACOBI_WEIGHTS; overwrites x and y."""
    code = ((y <= z).view(np.uint8) | (z <= x).view(np.uint8) << 1
            | ((x <= z) & (z <= y)).view(np.uint8) << 2 | par[x] << 3 | par[y] << 4 | par[z] << 5)
    mid = np.clip(z, x, y)
    key = np.minimum(x, z, out=x)
    key *= n
    key += mid
    key *= n
    key += np.maximum(y, z, out=y)
    return key, _JACOBI_WEIGHTS[code]


def check_super_jacobi(A, max_witnesses=10):
    """Exhaustive graded-Jacobi check.

    Super-anticommutativity is checked first (transpose_failures).  On a
    super-anticommutative table the graded jacobiator is super-alternating
    (Kac, "Lie superalgebras", 1977), so the sorted triples i <= j <= k
    decide the verdict.  Their cyclic jacobiators J(i,j,k) (_jacobi_weight)
    are summed exactly by int_fast.fold_blocks from one join: each table
    entry (x, y, m) with x <= y meets the rows (m, z, l), and the term
    c^m_xy c^l_mz of [[b_x,b_y],b_z] counts at the key (sorted(x,y,z), l),
    packed into one int64, with the weight of the roles it fills in J.
    The join takes l from the table row on its right, so a contraction past
    fold_blocks' term budget (E7, E8) folds one block of l at a time and
    memory follows the budget, not the 0.3 M (E7) or 1.3 M (E8) terms.  The
    integers are denominator-cleared constants over QQ (residues over
    GF(p), sums reduced mod p).  The verdict is whether any sum is nonzero.
    Witnesses are the first max_witnesses failing sorted triples, in the
    order of check_super_jacobi_reference, formatted from the sums, which
    are the jacobiators over D^2.
    """
    n, f = A.n, A.field
    n_triples = n * (n + 1) * (n + 2) // 6
    (I, J, K), V, D = A.coo
    anticom = transpose_failures(((I, J, K), V), A.parity, -1, f)
    if anticom:
        return JacobiReport(False, n, 0, anticom_failures=anticom[:max_witnesses], name=A.name)
    if not len(I):
        return JacobiReport(True, n, n_triples, name=A.name)

    par = np.array(A.parity, dtype=np.uint8)
    up = I <= J
    Iu, Ju, Vu = I[up], J[up], V[up]

    # [[b_x,b_y],b_z] = sum_m c_xy^m c_mz^l, x <= y; a zero weight (roles of
    # a tie that cancel) leaves a zero sum, which fold drops
    def terms(a, b):
        key, w = _sorted_triple_terms(Iu[a], Ju[a], J[b], par, n)
        key *= n
        key += K[b]
        return [(key, [Vu[a], V[b], w])]

    keys, sums, path = fold_blocks([joined(K[up], I, K, terms)],
                                   step=n, first=max(max_witnesses, 1), p=f.p)
    failures = []
    if max_witnesses and len(keys):
        # the keys are those of the first max_witnesses failing triples
        t = keys // n
        vals = to_field(sums, D * D, f)
        jacs = {t: [f.zero] * n for t in distinct(t).tolist()}
        for t, l, c in zip(t.tolist(), (keys % n).tolist(), vals):
            jacs[t][l] = c
        failures = [(t // (n * n), t // n % n, t % n, A.format_vector(jac))
                    for t, jac in jacs.items()]
    return JacobiReport(not len(keys), n, n_triples, failures=failures, name=A.name, path=path)


def _invertible(M, n, p=None):
    """Exact invertibility of the n x n matrix M given lowered ((rows,
    columns), integers, D) over GF(p) (QQ when p is None), by the integer
    echelon."""
    return len(echelon(coo_rows(M, n, p), p, n)[1]) == n


def lowered_map_failures(src, tgt, M, derivation=False, odd=False, max_witnesses=None,
                         copies=1):
    """Sorted pairs (i, j) with M(b_i b_j) != M(b_i) M(b_j), or, as a
    derivation of src = tgt of parity |M| = odd, with
    M(b_i b_j) != M(b_i) b_j + (-1)^{|M||i|} b_i M(b_j); the first
    max_witnesses of them, all when None, for the tgt.n x src.n matrix M
    given lowered, ((rows, columns), integers, D), as LinearMap.coo holds
    it.  With copies = k, M is block diagonal on k copies of src and of tgt
    (copy g at rows g tgt.n and columns g src.n, as GroupAction.stacked),
    and so are the pairs (i, j): i // src.n is the copy.

    One sparse exact contraction: the COO tables of src, tgt and M are
    joined on their shared indices, the copy riding along with the entries
    of M, keys (i, j, k) are packed into one int64 and int_fast.fold_blocks
    sums the terms.  Every term takes k, up to its copy, from the
    right-hand row of its join (an entry of M, or a row of tgt's table), so
    a contraction past fold_blocks' term budget folds one block of k at a
    time and keeps the first max_witnesses failing pairs of each.  Over QQ
    the terms are scaled to one denominator (D_m D_t on M(b_i b_j) and D_s
    on M(b_i) M(b_j); D_t and D_s for a derivation); over GF(p) they are
    residues and the sums are reduced mod p.
    """
    field, ns, nt = src.field, src.n, tgt.n
    n, nk = copies * ns, copies * nt
    (I, J, K), Vs, Ds = src.coo
    (It, Jt, Kt), Vt, Dt = tgt.coo
    (R, C), Vm, Dm = M
    r, gs, gt = R % nt, C // ns * ns, R // nt * nt     # local row, copy offsets

    def key(i, j, k):
        return (i * n + j) * nk + k

    # M(b_i b_j) = sum_k c^k_ij M(b_k)
    groups = [joined(K, C % ns, r, lambda a, b: [
        (key(gs[b] + I[a], gs[b] + J[a], R[b]), [Vs[a], Vm[b], Dt if derivation else Dm * Dt])])]
    if derivation:
        # M(b_i) b_j = sum_p M_pi c^k_pj and b_i M(b_j) = sum_q M_qj c^k_iq
        odd_i = np.array(tgt.parity, dtype=bool) & bool(odd)
        groups += [
            joined(r, It, Kt, lambda b, a: [
                (key(C[b], gt[b] + Jt[a], gt[b] + Kt[a]), [Vm[b], Vt[a], -Ds])]),
            joined(r, Jt, Kt, lambda b, a: [
                (key(gt[b] + It[a], C[b], gt[b] + Kt[a]),
                 [Vm[b], Vt[a], np.where(odd_i[It[a]], 1, -1), Ds])])]
    else:
        # M(b_i) M(b_j) = sum_{p,q} M_pi M_qj c^k_pq: a row of tgt's table
        # joins the entries of M in its row p, then those of the same copy
        # in its row q
        cnt = np.bincount(R, minlength=nk).reshape(copies, nt)

        def both(rows):
            rows = np.arange(len(It)) if rows is None else rows
            b, a = join(r, It[rows])
            a = rows[a]
            c, t = join(R, gt[b] + Jt[a])
            a, b = a[t], b[t]
            return [(key(C[b], C[c], gt[b] + Kt[a]), [Vm[b], Vm[c], Vt[a], -Ds])]
        groups.append((Kt, (cnt[:, It] * cnt[:, Jt]).sum(axis=0), both))
    keys, _sums, _path = fold_blocks(groups, step=nk, first=max_witnesses, p=field.p)
    return [(ij // n, ij % n) for ij in distinct(keys // nk)[:max_witnesses].tolist()]


def is_automorphism(A, f):
    """True iff the LinearMap f is an invertible even map of A with
    f(xy) = f(x)f(y)."""
    return (f.parity == EVEN and f.domain.n == f.codomain.n == A.n
            and _invertible(f.coo, A.n, A.field.p) and not lowered_map_failures(A, A, f.coo))


def is_derivation(A, f):
    """True iff the LinearMap f of A has f(xy) = f(x)y + (-1)^{|f||x|} x f(y)
    on all basis pairs."""
    return (f.domain.n == f.codomain.n == A.n
            and not lowered_map_failures(A, A, f.coo, derivation=True, odd=f.parity == ODD))


def check_grading(A, grading):
    """True iff every nonzero structure constant respects the degree map."""
    deg = grading.degrees
    if len(deg) != A.n:
        raise ValueError("grading has wrong length")
    (I, J, K), _V, _D = A.coo
    return all(deg[k] == grading.add(deg[i], deg[j])
               for i, j, k in zip(I.tolist(), J.tolist(), K.tolist()))


def left_mults(A, vectors):
    """The left multiplications L_v of a list of vectors as COO integers
    over the denominator D: entry (t * n + k, j) holds D L_{v_t}[k][j]
    = D sum_i v_t[i] c^k_ij, from one join of the table's first index
    with the vectors and one fold; ValueError unless every vector has
    length dim A."""
    f, n = A.field, A.n
    bad = [len(v) for v in vectors if len(v) != n]
    if bad:
        raise ValueError("vector of length %d, the algebra has dimension %d" % (bad[0], n))
    (I, J, K), V, Dt = A.coo
    (t, x), xv, Dx = rows_coo(vectors, f)
    a, b = join(I, x)
    keys, sums, _path = fold([((t[b] * n + K[a]) * n + J[a], [V[a], xv[b]])], f.p)
    return (keys // n, keys % n), sums, Dt * Dx


def trace_products(A, trace):
    """t(b_i b_j) = sum_k c^k_ij t_k on all basis pairs, for a linear form
    t held lowered ((indices,), integers, D) as a factor's trace_coo, as the
    COO ((i, j), integers, D): one join of the table's output index with
    the form's support and one fold over D = D_c D_t."""
    n = A.n
    (I, J, K), V, Dc = A.coo
    (Ti,), T, Dt = trace
    a, b = join(K, Ti)
    ij, sums, _path = fold([(I[a] * n + J[a], [V[a], T[b]])], A.field.p)
    return (ij // n, ij % n), sums, Dc * Dt


def centralizer(L, S):
    """Basis of {x in L : [s, x] = 0 for all s in S}: the kernel of the stacked ad(s)."""
    (tk, j), sums, D = left_mults(L, S)
    return kernel_of(((tk, j), sums, D), len(S) * L.n, L.n, L.field)


def _find_unit(alg):
    """Solve u*x = x = x*u on the basis; None if the algebra is not unital.

    One equation sum_i u_i c_ij^k = delta_jk per (j, k) with a nonzero
    coefficient, on each side, read off the COO table; the (j, k) left
    out are 0 = 0 off the diagonal and 0 = 1 on it.
    """
    m = alg.n
    if m == 0:
        return None
    (I, J, K), V, D = alg.coo
    eqs = {}
    for i, j, k, c in zip(I.tolist(), J.tolist(), K.tolist(), V.tolist()):
        eqs.setdefault((0, j, k), {})[i] = c       # u b_j, times D
        eqs.setdefault((1, i, k), {})[j] = c       # b_i u
    if any((side, j, j) not in eqs for side in (0, 1) for j in range(m)):
        return None
    system = {(tuple(sorted(row.items())), j == k): row for (_side, j, k), row in eqs.items()}
    return solution([{**row, m: D} if diag else row for (_r, diag), row in system.items()],
                    m, alg.field)
