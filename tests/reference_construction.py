"""Fraction reference implementations of the construction, kept as test
oracles for the sparse exact contractions of the library.

Each builds its bilinear map one product at a time in field arithmetic and
solves every product with Subspace.coords: the brackets of der C, of
matrix Lie algebras, of T(C, J) and of the T62 variant, and the
coordinate algebra of an S4 action.  They share Matrix, Subspace.add/coords and the pointwise
field-arithmetic helpers (multiply, composition.inner_derivation) with the
library, but none of its int_fast kernel or Subspace.coords_many.  The
multiplication matrices are pointwise here: L_x one structure constant at
a time (left_mult) and the inner derivations d_{x,y} of a Jordan algebra
as dense Matrix products of those (jordan_inner_derivation).

Two more oracles share nothing with the library's elimination: the dense
Gauss-Jordan loop of a Matrix (dense_rref) and the associator rows of the
normalized-trace system, one triple of products at a time
(associator_rows).

The S4 and so3 layers have dense Matrix oracles: word products and the
relation check (word_matrix, relation_failures), the Klein components, the
Casimir kernels from ads[i] @ ads[i], the kernels of ad(d0) inside a
component and the synthesized generators Psi B Psi^{-1}.  The nine
invariant maps on gl(W) are closures of dense 3x3 products
(invariant_map_closures); invariant_maps_dense evaluates them on the so3,
h and z bases and checks their equivariance one basis pair at a time.

The columns of Psi for the module copies of extract_b1 have a per-vector
oracle (copy_columns_per_vector): each copy walked on its own, one
concrete vector at a time (module_copy_map), with its own inverse of the
abstract vectors.

The B1 coefficient data has a dense oracle for its unit laws and
(super)symmetries (b1_validate): the tables are expanded into nested lists
and checked by vector loops.

A few views that only tests take live here too: the conjugation of a
coordinate algebra in ambient coordinates (conj_ambient), a Klein grading
as an algebra in its component basis (as_transported_grading) and the
hermitian part of an algebra with involution (hermitian_basis).

The identities of the inputs have pointwise oracles: the graded
(anti)symmetry of a table one pair of rows at a time
(transpose_failures_reference), the linearized Jordan identity by dense
operator commutators L_x L_{yz} one basis triple at a time
(jordan_identity), and the superantiautomorphism law of an involution
one product of basis vectors at a time (involution_failures).

The 2x2 algebras A(J) and A(K) have a pointwise oracle (two_by_two): one
cross product J.cross and one pairing 3t(b_i b_j), or 2 b_i b_j and
3<b_i|b_j>, per basis pair (a_of_j_pointwise, a_of_cubic_pointwise).

The tensor product C x C^ of composition algebras has a pointwise oracle
(tensor_product_pointwise): the four-deep loops over pairs of table rows
and over the columns of the two conjugations, each column a pointwise
C.conj of a basis vector.  H3(C^) has one too (h3_pointwise): its table
one accumulate at a time, from pointwise products, C.conj and C.trace.

inner_derivation_pairs_by_basis is the other contraction order of the
batch of d_{x,y}: the graded commutators [L_{b_a}, L_{b_b}] of all basis
pairs first, then one bilinear contraction with the vectors.

diag_transported moves a Jordan algebra to a diagonally rescaled basis,
the input of the past-int64 tests; unimodular draws a parity-preserving
integral change of basis with integral inverse, the input of the
metamorphic tests.

The maps that the library holds lowered have their dense builders here,
column by column in field arithmetic: the inner derivation D_{a,b} of a
composition algebra (inner_derivation_pointwise, from associators), Phi of
the two coordinate-algebra theorems (phi41_dense, phi61_dense), the
quaternionic maps (jordan_to_aj_dense, psi_dense), the Kaplansky map
(ak_to_ajv_dense) and the inclusion of a coordinate algebra with its
images under phi and phi^2 (iota_dense).  The involutions have theirs in
two_by_two, tensor_product_pointwise and coordinate_constants.  lowered
and invertible take a Matrix to the lowered form that the map checks
read.
"""

from fractions import Fraction

import numpy as np

from magma_tits.algebra import EVEN, Grading, LinearMap, SuperAlgebra, _invertible
from magma_tits.decompose import h_basis, s4_on_w, so3_basis
from magma_tits.exact import (QQ, Matrix, Subspace, basis_vector, flatten_matrix, inverse_coo,
                              vec_eq, vec_is_zero, vec_zero)
from magma_tits.int_fast import bilinear, commutators, matvec, rows_coo
from magma_tits.jordan import JordanAlgebra
from magma_tits.s4 import RELATIONS
from magma_tits.structurable import AlgebraWithInvolution


def accumulate(sc, i, j, k, c):
    """sc[(i, j)][k] += c on a table under construction; SuperAlgebra drops
    the zero sums and empty rows."""
    if c:
        row = sc.setdefault((i, j), {})
        row[k] = row[k] + c if k in row else c


def commutator(A, B):
    return A @ B - B @ A


def vec_add(a, b):
    return [x + y for x, y in zip(a, b)]


def vec_scale(c, a):
    return [c * x for x in a]


def left_mult(alg, x):
    """Matrix of left multiplication L_x, one structure constant at a time."""
    L = Matrix.zeros(alg.n, alg.n, alg.field)
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j in range(alg.n):
            for k, c in alg.product_basis(i, j).items():
                L.rows[k][j] = L.rows[k][j] + xi * c
    return L


def associator(C, a, b, c):
    """(a, b, c) = (ab)c - a(bc)."""
    alg = C.algebra
    return [x - y for x, y in zip(alg.multiply(alg.multiply(a, b), c),
                                  alg.multiply(a, alg.multiply(b, c)))]


def inner_derivation_pointwise(C, a, b):
    """D_{a,b} : c -> [[a,b],c] + 3 (a,c,b), one basis vector c at a time."""
    alg = C.algebra
    ab = alg.multiply(a, b)
    ba = alg.multiply(b, a)
    comm = [x - y for x, y in zip(ab, ba)]
    three = C.field.of(3)
    cols = []
    for i in range(C.dim):
        c = alg.e(i)
        t1 = [x - y for x, y in zip(alg.multiply(comm, c), alg.multiply(c, comm))]
        asc = associator(C, a, c, b)
        cols.append([x + three * y for x, y in zip(t1, asc)])
    return LinearMap(alg, alg, Matrix.from_columns(cols, C.field))


def jordan_inner_derivation(J, x, y):
    """d_{x,y} = L_x L_y - (-1)^{|x||y|} L_y L_x by dense Matrix products;
    ValueError for arguments of mixed parity."""
    alg = J.algebra
    px, py = alg.parity_of_vector(x), alg.parity_of_vector(y)
    if px is None or py is None:
        raise ValueError("inner_derivation needs parity-homogeneous arguments")
    Lx, Ly = left_mult(alg, x), left_mult(alg, y)
    M = Lx @ Ly + Ly @ Lx if px and py else Lx @ Ly - Ly @ Lx
    return LinearMap(alg, alg, M, parity=(px + py) % 2)


def _sc_of_commutators(mats, span, check=True, parities=None):
    """{(a, b): {k: c}} of the graded commutators in span coordinates;
    ValueError when check and a commutator lies outside the span."""
    sc = {}
    for a, Ma in enumerate(mats):
        for b, Mb in enumerate(mats):
            if parities is not None and parities[a] and parities[b]:
                comm = Ma @ Mb + Mb @ Ma
            else:
                comm = Ma @ Mb - Mb @ Ma
            coords = span.coords(flatten_matrix(comm), check=check)
            if coords is None:
                raise ValueError("commutator [%d, %d] is outside the span" % (a, b))
            for k, c in enumerate(coords):
                accumulate(sc, a, b, k, c)
    return sc


def derivation_constants(C):
    """(generators, structure constants) of der C: D_{b_i,b_j}, i < j, fed
    in lexicographic order, bracketed by Matrix commutators."""
    n = C.dim
    span = Subspace(n * n, C.field)
    mats, gens = [], []
    for i in range(n):
        for j in range(i + 1, n):
            D = inner_derivation_pointwise(C, C.algebra.e(i), C.algebra.e(j))
            if span.add(flatten_matrix(D.matrix)):
                mats.append(D.matrix)
                gens.append((i, j))
    return gens, _sc_of_commutators(mats, span)


def lie_from_matrices(mats, field):
    """Structure constants of a list of independent matrices closed under
    the commutator; ValueError otherwise."""
    nn = mats[0].nrows
    span = Subspace(nn * nn, field)
    for M in mats:
        if not span.add(flatten_matrix(M)):
            raise ValueError("matrices are not linearly independent")
    sc = {}
    for a in range(len(mats)):
        for b in range(len(mats)):
            coords = span.coords(flatten_matrix(commutator(mats[a], mats[b])))
            if coords is None:
                raise ValueError("not closed under commutator")
            for k, c in enumerate(coords):
                accumulate(sc, a, b, k, c)
    return sc


def _djj_span(J, vectors):
    """Span, matrices and parities of d_{x_i,x_j}, i <= j, fed in order."""
    span = Subspace(J.dim * J.dim, J.field)
    mats, pars = [], []
    for i in range(len(vectors)):
        for j in range(i, len(vectors)):
            d = jordan_inner_derivation(J, vectors[i], vectors[j])
            if span.add(flatten_matrix(d.matrix)):
                mats.append(d.matrix)
                pars.append(d.parity)
    return span, mats, pars


def tits_constants(C, J, derC, c0_basis, j0_basis):
    """Structure constants of T(C, J) in the basis order of tits(): der C,
    a_i x x_j, d_{J,J}; the d_{J,J} brackets and d_{x,y} are projected
    through the pivot rows (check=False), as the corrupted-J controls
    need; C0 and J0 coordinates split along k1 when needed."""
    f = C.field
    nc, nj = len(c0_basis), len(j0_basis)
    c0_span = Subspace.from_vectors(c0_basis, C.dim, f) if c0_basis else Subspace(C.dim, f)
    j0_span = Subspace.from_vectors(j0_basis, J.dim, f) if j0_basis else Subspace(J.dim, f)
    dspan, dmats, dpars = _djj_span(J, j0_basis)

    def split(span, v, t, unit):
        c = span.coords(v)
        if c is None:
            c = span.coords([p - t * u for p, u in zip(v, unit)])
        if c is None:
            raise ValueError("vector cannot be split")
        return c

    def j0c(v):
        return split(j0_span, v, J.trace_of(v), J.unit)

    def c0c(v):
        return split(c0_span, v, C.trace(v) / f.of(2), C.unit)

    def dcoords(x, y):
        return dspan.coords(flatten_matrix(jordan_inner_derivation(J, x, y).matrix), check=False)

    m = derC.dim
    nd = dspan.dim
    off = m + nc * nj
    par = [J.algebra.parity_of_vector(x) for x in j0_basis]

    def tidx(i, j):
        return m + i * nj + j

    sc = {}
    for (r, s), row in derC.lie.sc.items():
        for k, c in row.items():
            accumulate(sc, r, s, k, c)
    for r, D in enumerate(derC.matrices):
        for i, a in enumerate(c0_basis):
            for i2, c in enumerate(c0c(D.apply(a))):
                for j in range(nj):
                    accumulate(sc, r, tidx(i, j), tidx(i2, j), c)
                    accumulate(sc, tidx(i, j), r, tidx(i2, j), -c)
    for (s, t), row in _sc_of_commutators(dmats, dspan, False, dpars).items():
        for k, c in row.items():
            accumulate(sc, off + s, off + t, off + k, c)
    for s, M in enumerate(dmats):
        for j, x in enumerate(j0_basis):
            odd = dpars[s] and par[j]
            for j2, c in enumerate(j0c(M.apply(x))):
                for i in range(nc):
                    accumulate(sc, off + s, tidx(i, j), tidx(i, j2), c)
                    accumulate(sc, tidx(i, j), off + s, tidx(i, j2), c if odd else -c)
    two = f.of(2)
    for i, a in enumerate(c0_basis):
        for k, b in enumerate(c0_basis):
            ab, ba = C.product(a, b), C.product(b, a)
            DC = derC.span.coords(flatten_matrix(inner_derivation_pointwise(C, a, b).matrix))
            br = c0c([p - q for p, q in zip(ab, ba)])
            tr = C.trace(ab)
            for j, x in enumerate(j0_basis):
                for l, y in enumerate(j0_basis):
                    src, dst = tidx(i, j), tidx(k, l)
                    xy = J.multiply(x, y)
                    t = J.trace_of(xy)
                    for r, c in enumerate(DC):
                        accumulate(sc, src, dst, r, t * c)
                    star = j0c([p - t * u for p, u in zip(xy, J.unit)])
                    for i2, cb in enumerate(br):
                        for j2, cs in enumerate(star):
                            accumulate(sc, src, dst, tidx(i2, j2), cb * cs)
                    if tr:
                        for s, cd in enumerate(dcoords(x, y)):
                            accumulate(sc, src, dst, off + s, two * tr * cd)
    return sc


def tits62_constants(Q, J):
    """Structure constants of (Q0 x J) + d_{J,J} with d_{J,J} spanned over
    full J basis pairs, in the basis order of tits62_variant."""
    f = Q.field
    alg = J.algebra
    nJ = J.dim
    q0_basis = Q.traceless_basis()
    q0_span = Subspace.from_vectors(q0_basis, Q.dim, f)
    span, mats, pars = _djj_span(J, [alg.e(i) for i in range(nJ)])
    nq = len(q0_basis)
    off = nq * nJ

    def tidx(i, j):
        return i * nJ + j

    sc = {}
    two = f.of(2)
    for i, a in enumerate(q0_basis):
        for k, b in enumerate(q0_basis):
            br = q0_span.coords([x - y for x, y in zip(Q.product(a, b), Q.product(b, a))])
            tr = Q.trace(Q.product(a, b))
            for j in range(nJ):
                for l in range(nJ):
                    for i2, cb in enumerate(br):
                        for j2, cp in alg.product_basis(j, l).items():
                            accumulate(sc, tidx(i, j), tidx(k, l), tidx(i2, j2), cb * cp)
                    if tr:
                        d = jordan_inner_derivation(J, alg.e(j), alg.e(l))
                        for s, cd in enumerate(span.coords(flatten_matrix(d.matrix), check=False)):
                            accumulate(sc, tidx(i, j), tidx(k, l), off + s, two * tr * cd)
    for s, M in enumerate(mats):
        for i in range(nq):
            for j in range(nJ):
                odd = pars[s] and alg.parity[j]
                for j2, c in enumerate(M.column(j)):
                    accumulate(sc, off + s, tidx(i, j), tidx(i, j2), c)
                    accumulate(sc, tidx(i, j), off + s, tidx(i, j2), c if odd else -c)
    for (s, t), row in _sc_of_commutators(mats, span, True, pars).items():
        for k, c in row.items():
            accumulate(sc, off + s, off + t, off + k, c)
    return sc


def coordinate_constants(ca):
    """(structure constants, sigma columns) of a CoordinateAlgebra, one
    product_ambient and one Subspace.coords at a time."""
    span = ca.span
    m = span.dim
    sc = {}
    for i in range(m):
        for j in range(m):
            prod = ca.product_ambient(span.basis[i], span.basis[j])
            if vec_is_zero(prod):
                continue
            coords = span.coords(prod)
            if coords is None:
                raise ValueError("vector is not in the (1,0) component")
            for k, c in enumerate(coords):
                accumulate(sc, i, j, k, c)
    sigma = [span.coords(conj_ambient(ca, v)) for v in span.basis]
    return sc, sigma


def conj_ambient(ca, X):
    """The conjugation -tau X of a CoordinateAlgebra, in ambient coordinates."""
    return [-x for x in ca.action["tau"].apply(X)]


def as_transported_grading(kg):
    """(algebra in the component basis, Grading) of a KleinGrading, for
    check_grading."""
    g = kg.action.target
    cols, degrees = [], []
    for key in kg.KEYS:
        for v in kg.components[key]:
            cols.append(v)
            degrees.append(key)
    U = Matrix.from_columns(cols, g.field)
    return g.transported(U, name=g.name + "/klein"), Grading("Z2xZ2", degrees)


def hermitian_basis(awi):
    """Basis of {z : sigma(z) = z} of an AlgebraWithInvolution."""
    M = awi.sigma - Matrix.identity(awi.algebra.n, awi.algebra.field)
    return M.kernel_basis()


def clean(sc):
    """A table with the zero entries and empty rows dropped, for comparing
    with the table a SuperAlgebra keeps."""
    return {ij: {k: c for k, c in row.items() if c} for ij, row in sc.items()
            if any(row.values())}


def dense_rref(M):
    """Reduced row echelon form of a Matrix by the dense Gauss-Jordan loop:
    (R, pivot columns), R as a Matrix with the zero rows at the bottom."""
    R = M.copy()
    pivots = []
    prow = 0
    for col in range(R.ncols):
        sel = None
        for i in range(prow, R.nrows):
            if R.rows[i][col]:
                sel = i
                break
        if sel is None:
            continue
        R.rows[prow], R.rows[sel] = R.rows[sel], R.rows[prow]
        inv = R.rows[prow][col]
        R.rows[prow] = [x / inv for x in R.rows[prow]]
        for i in range(R.nrows):
            if i != prow and R.rows[i][col]:
                f = R.rows[i][col]
                ri, rp = R.rows[i], R.rows[prow]
                R.rows[i] = [a - f * b for a, b in zip(ri, rp)]
        pivots.append(col)
        prow += 1
        if prow == R.nrows:
            break
    return R, pivots


def associator_rows(algebra):
    """The distinct nonzero rows (b_i b_j) b_k - b_i (b_j b_k) of the
    normalized-trace system, in (i, j, k) order, from n^3 triples of
    SuperAlgebra.multiply."""
    n = algebra.n
    seen, rows = set(), []
    for i in range(n):
        bi = algebra.e(i)
        for j in range(n):
            bj = algebra.e(j)
            ij = algebra.multiply(bi, bj)
            for k in range(n):
                bk = algebra.e(k)
                left = algebra.multiply(ij, bk)
                right = algebra.multiply(bi, algebra.multiply(bj, bk))
                row = tuple(a - b for a, b in zip(left, right))
                if any(row) and row not in seen:
                    seen.add(row)
                    rows.append(list(row))
    return rows


def word_matrix(action, word):
    """Dense Matrix product of the generators of a word; the identity for
    the empty word."""
    M = Matrix.identity(action.dim, action.field)
    for w in word:
        M = M @ action[w]
    return M


def relation_failures(action, relations=RELATIONS):
    """The (lhs, rhs) pairs whose dense word products differ."""
    return [(lhs, rhs) for lhs, rhs in relations
            if word_matrix(action, lhs) != word_matrix(action, rhs)]


def klein_components(action):
    """{(a, b): kernel of (tau1 - (-1)^b I; tau2 - (-1)^a I)} by dense
    Matrix arithmetic; ValueError unless tau1, tau2 are commuting
    involutions."""
    t1, t2 = action["tau1"], action["tau2"]
    f = action.field
    I = Matrix.identity(action.dim, f)
    if t1 @ t1 != I or t2 @ t2 != I or t1 @ t2 != t2 @ t1:
        raise ValueError("tau1, tau2 are not commuting involutions")
    return {(a, b): Matrix((t1 - I.scale((-1) ** b)).rows + (t2 - I.scale((-1) ** a)).rows,
                           f).kernel_basis()
            for a in (0, 1) for b in (0, 1)}


def casimir_kernels(g, triple):
    """Kernels of Omega + 2, Omega + 6 and Omega, with the Casimir
    Omega = sum ads[i] @ ads[i] of dense ad matrices."""
    ads = [left_mult(g, v) for v in triple]
    Omega = ads[0] @ ads[0] + ads[1] @ ads[1] + ads[2] @ ads[2]
    I = Matrix.identity(g.n, g.field)
    return [(Omega + I.scale(c)).kernel_basis() for c in (2, 6, 0)]


def kernel_within(op, component, field):
    """Basis of {v in span(component) : op v = 0} from the dense op @ B."""
    if not component:
        return []
    B = Matrix.from_columns(component, field)
    return [B.apply(c) for c in (op @ B).kernel_basis()]


def module_copy_map(R_mats, start_abstract, ad_ops, start_concrete, dim):
    """Generate one module copy in lockstep: the list of (abstract coords,
    concrete vector) spanning pairs, built by applying the abstract
    operators R_i and the concrete operators ad_ops[i] together, breadth
    first: the pairs are read while they are appended."""
    pairs = [(start_abstract, start_concrete)]
    span = Subspace.from_vectors([start_abstract], dim, R_mats[0].field)
    for absv, conc in pairs:
        for R, ad in zip(R_mats, ad_ops):
            if span.dim == dim:
                break
            na = R.apply(absv)
            if span.add(na):
                pairs.append((na, ad(conc)))
    if span.dim != dim:
        raise ValueError("module copy is not generated by the starting vector")
    return pairs


def copy_columns_per_vector(R_mats, start, ops, D, vecs, width, offset, f):
    """Oracle of decompose._copy_columns, with its arguments and result:
    each copy walked by module_copy_map, each concrete vector lowered, pushed
    through one ad(d_t) = ops[t] / D and raised back to field values on its
    own, and each copy's columns sum_s A^{-1}[s][i] conc_s from its own
    inverse of the abstract vectors A."""
    p = f.p

    def ad_op(op):
        def apply(v):
            X, Vx, Dx = rows_coo([v], f)
            (ids, rows), sums = matvec(op, (X, Vx), p)
            return Matrix.from_coo(len(v), 1, ((rows, ids), sums, D * Dx), f).column(0)
        return apply
    ad_ops = [ad_op(op) for op in ops]
    blocks = []
    for j, h in enumerate(vecs):
        pairs = module_copy_map(R_mats, start, ad_ops, h, width)
        (s, x), Vs, Ds = rows_coo([a for a, _c in pairs], f)
        (r, c), Va, Da = inverse_coo(((x, s), Vs, Ds), width, p)
        (s, x), Vc, Dc = rows_coo([conc for _a, conc in pairs], f)
        (i, k), sums = matvec(((x, s), Vc), ((c, r), Va), p)
        blocks.append((k, offset + width * j + i, [sums], Dc * Da))
    return blocks


def synthesized_generators(extraction):
    """{name: Psi B Psi^{-1}} with B block diagonal: the conjugation
    P D P^{-1} on each so3 copy, P X P^{-1} on each h copy, the identity on
    the centralizer; all dense Matrix products."""
    data = extraction.data
    f = data.field
    Ds, Hs = so3_basis(f), h_basis(f)
    so3_span, h_span = (Subspace.from_vectors([flatten_matrix(M) for M in mats], 9, f)
                        for mats in (Ds, Hs))
    mh, ms, md = data.hdim, data.sdim, data.ddim
    n = extraction.psi.nrows
    gens = {}
    for name, P in s4_on_w(f).gens.items():
        Pi = P.inverse()
        rho3 = Matrix.from_columns([so3_span.coords(flatten_matrix(P @ D @ Pi)) for D in Ds], f)
        rho5 = Matrix.from_columns([h_span.coords(flatten_matrix(P @ X @ Pi)) for X in Hs], f)
        block = Matrix.zeros(n, n, f)
        for rho, width, start, copies in ((rho3, 3, 0, mh), (rho5, 5, 3 * mh, ms)):
            for j in range(copies):
                for x1 in range(width):
                    for x2 in range(width):
                        block[start + width * j + x1, start + width * j + x2] = rho[x1, x2]
        for r in range(md):
            block[3 * mh + 5 * ms + r, 3 * mh + 5 * ms + r] = f.one
        gens[name] = extraction.psi @ block @ extraction.psi_inv
    return gens


def invariant_map_closures(field):
    """The nine invariant maps as (name, src1, src2, dst, function) of dense
    3x3 Matrix products."""
    f = field
    two3 = f.of(2) / f.of(3)
    I3 = Matrix.identity(3, f)

    def jordan_traceless(A, B):
        AB = A @ B
        BA = B @ A
        return AB + BA - I3.scale(two3 * AB.trace())

    def trace_part(A, B):
        return I3.scale((A @ B).trace())

    def zero_map(A, B):
        return Matrix.zeros(3, 3, f)

    return [
        ("so3xso3->so3", "so3", "so3", "so3", commutator),
        ("so3xso3->h", "so3", "so3", "h", jordan_traceless),
        ("so3xso3->z", "so3", "so3", "z", trace_part),
        ("so3xh->so3", "so3", "h", "so3", lambda A, X: A @ X + X @ A),
        ("so3xh->h", "so3", "h", "h", commutator),
        ("so3xh->z", "so3", "h", "z", zero_map),
        ("hxh->so3", "h", "h", "so3", commutator),
        ("hxh->h", "h", "h", "h", jordan_traceless),
        ("hxh->z", "h", "h", "z", trace_part),
    ]


def invariant_maps_dense(field, maps=None):
    """({name: table}, failures) of the maps (invariant_map_closures by
    default), one Matrix product at a time.  A table is the object array
    [i1, i2, m] of the target coordinates of fn(A, B) on the so3, h and z
    bases ([i1, i2], the multiple of I, for z), None if an image leaves the
    target.  The failures are (name, reason) for every basis pair whose
    image leaves the target, every D_i that breaks
    [D, fn(A, B)] = fn([D, A], B) + fn(A, [D, B]) and every S4 generator P
    that breaks fn(P A P^-1, P B P^-1) = P fn(A, B) P^-1."""
    maps = invariant_map_closures(field) if maps is None else maps
    bases = {"so3": so3_basis(field), "h": h_basis(field), "z": [Matrix.identity(3, field)]}
    spans = {s: Subspace.from_vectors([flatten_matrix(M) for M in B], 9, field)
             for s, B in bases.items()}
    Ds = bases["so3"]
    act = s4_on_w(field)
    tables, failures = {}, []
    for name, s1, s2, dst, fn in maps:
        coords = []
        for A in bases[s1]:
            for B in bases[s2]:
                val = fn(A, B)
                coords.append(spans[dst].coords(flatten_matrix(val)))
                if coords[-1] is None:
                    failures.append((name, "image outside target"))
                for D in Ds:
                    lhs = fn(commutator(D, A), B) + fn(A, commutator(D, B))
                    rhs = commutator(D, val) if dst != "z" else Matrix.zeros(3, 3, field)
                    if lhs != rhs:
                        failures.append((name, "not so3-equivariant"))
                for g in ("tau1", "tau2", "phi", "tau"):
                    P = act[g]
                    Pi = P.inverse()
                    if fn(P @ A @ Pi, P @ B @ Pi) != P @ val @ Pi:
                        failures.append((name, "not S4-equivariant under " + g))
        if None in coords:
            tables[name] = None
            continue
        t = np.array(coords, dtype=object).reshape(len(bases[s1]), len(bases[s2]), -1)
        tables[name] = t[..., 0] if dst == "z" else t
    return tables, failures


def b1_validate(data):
    """B1Data.validate by dense vector loops over the tables expanded into
    nested lists [j][k][t]."""
    f = data.field
    one = data.unit_h
    mh, ms, md = data.hdim, data.sdim, data.ddim

    def dense(name, rows, cols, dim):
        table = getattr(data, name)
        return [[[table.get((j, k), {}).get(t, f.zero) for t in range(dim)]
                 for k in range(cols)] for j in range(rows)]

    circ_HH, brk_HH, d_HH = (dense(nm, mh, mh, dim)
                             for nm, dim in (("circ_HH", mh), ("brk_HH", ms), ("d_HH", md)))
    brk_HS, circ_HS = dense("brk_HS", mh, ms, mh), dense("circ_HS", mh, ms, ms)
    circ_SS, brk_SS, d_SS = (dense(nm, ms, ms, dim)
                             for nm, dim in (("circ_SS", mh), ("brk_SS", ms), ("d_SS", md)))

    def lincomb(table, coords):
        out = None
        for j, c in enumerate(coords):
            if c:
                term = [c * v for v in table[j]]
                out = term if out is None else vec_add(out, term)
        return out

    for a in range(mh):
        if not vec_eq(lincomb([row[a] for row in circ_HH], one), basis_vector(mh, a, f)):
            return False
        if not vec_is_zero(lincomb([row[a] for row in brk_HH], one)):
            return False
    for x in range(ms):
        if not vec_is_zero(lincomb([row[x] for row in brk_HS], one)):
            return False
        if not vec_eq(lincomb([row[x] for row in circ_HS], one), basis_vector(ms, x, f)):
            return False

    for dim, par, (circ, brk, dd) in ((mh, data.h_parity, (circ_HH, brk_HH, d_HH)),
                                      (ms, data.s_parity, (circ_SS, brk_SS, d_SS))):
        for j in range(dim):
            for k in range(dim):
                s = f.of(-1 if (par[j] and par[k]) else 1)
                if not vec_eq(circ[j][k], vec_scale(s, circ[k][j])):
                    return False
                if not vec_eq(brk[j][k], vec_scale(-s, brk[k][j])):
                    return False
                if not vec_eq(dd[j][k], vec_scale(-s, dd[k][j])):
                    return False
    return True


def transpose_failures_reference(sc, parity, sign, field, max_witnesses=None):
    """Pairs (i, j), i <= j, in order, with sc[(i, j)][k] !=
    sign (-1)^{|i||j|} sc[(j, i)][k] for some k; the first max_witnesses."""
    failures = []
    for (i, j) in sorted(set(sc) | {(j, i) for (i, j) in sc}):
        if i > j:
            continue
        row, rev = sc.get((i, j), {}), sc.get((j, i), {})
        flip = (sign < 0) != bool(parity[i] and parity[j])
        for k in set(row) | set(rev):
            a, b = row.get(k, field.zero), rev.get(k, field.zero)
            if a != (-b if flip else b):
                failures.append((i, j))
                break
    return failures[:max_witnesses]


def jordan_identity(J):
    """sum_cyc (-1)^{|a||c|} [L_a, L_{b o c}] = 0 on every basis triple
    a <= b <= c (jordan_identity_failure finds none)."""
    return jordan_identity_failure(J) is None


def jordan_identity_failure(J):
    """The first basis triple a <= b <= c, in lexicographic order, with
    sum_cyc (-1)^{|a||c|} [L_a, L_{b o c}] != 0, by dense Matrix products
    and graded commutators; None if there is none."""
    alg = J.algebra
    n = alg.n
    L = [left_mult(alg, alg.e(i)) for i in range(n)]
    par = alg.parity

    def graded_comm(A, B, pa, pb):
        M = A @ B
        N = B @ A
        return (M + N) if (pa and pb) else (M - N)

    for a in range(n):
        for b in range(a, n):
            for c in range(b, n):
                total = Matrix.zeros(n, n, alg.field)
                for (x, y, z) in ((a, b, c), (b, c, a), (c, a, b)):
                    sign = -1 if (par[x] and par[z]) else 1
                    yz = alg.multiply(alg.e(y), alg.e(z))
                    Lyz = left_mult(alg, yz)
                    pyz = (par[y] + par[z]) % 2
                    term = graded_comm(L[x], Lyz, par[x], pyz)
                    total = (total + term) if sign > 0 else (total - term)
                if not total.is_zero():
                    return a, b, c
    return None


def involution_failures(AI):
    """AlgebraWithInvolution.involution_failures by one pair of basis
    vectors at a time: sigma(b_i b_j) against (-1)^{|i||j|} sigma(b_j) sigma(b_i)."""
    alg, sigma = AI.algebra, AI.sigma
    out = []
    if sigma @ sigma != Matrix.identity(alg.n, alg.field):
        out.append("sigma^2 != id")
    cols = [sigma.column(j) for j in range(alg.n)]
    for i in range(alg.n):
        for j in range(alg.n):
            lhs = sigma.apply(alg.multiply(alg.e(i), alg.e(j)))
            rhs = alg.multiply(cols[j], cols[i])
            if alg.parity[i] and alg.parity[j]:
                rhs = [-x for x in rhs]
            if not vec_eq(lhs, rhs):
                out.append((i, j))
    return out


def two_by_two(alg, pairing, cross, name):
    """A(.) with the diagonal-swap involution from pairing(i, j) (a scalar)
    and cross(i, j) (a vector) on basis pairs, one accumulate at a time.
    Basis order: alpha, x slot, y slot, beta."""
    f = alg.field
    nj = alg.n
    n = 2 + 2 * nj
    A_IDX, B_IDX = 0, n - 1
    labels = (["alpha"] + ["x:%s" % b for b in alg.basis]
              + ["y:%s" % b for b in alg.basis] + ["beta"])
    parity = [EVEN] + list(alg.parity) + list(alg.parity) + [EVEN]

    def xi(i):
        return 1 + i

    def yi(i):
        return 1 + nj + i

    sc = {}
    accumulate(sc, A_IDX, A_IDX, A_IDX, f.one)
    accumulate(sc, B_IDX, B_IDX, B_IDX, f.one)
    for i in range(nj):
        accumulate(sc, A_IDX, xi(i), xi(i), f.one)
        accumulate(sc, B_IDX, yi(i), yi(i), f.one)
        accumulate(sc, xi(i), B_IDX, xi(i), f.one)
        accumulate(sc, yi(i), A_IDX, yi(i), f.one)
    for i in range(nj):
        for j in range(nj):
            tij = pairing(i, j)
            accumulate(sc, xi(i), yi(j), A_IDX, tij)
            accumulate(sc, yi(i), xi(j), B_IDX, tij)
            for t, c in enumerate(cross(i, j)):
                accumulate(sc, yi(i), yi(j), 1 + t, c)
                accumulate(sc, xi(i), xi(j), 1 + nj + t, c)
    A = SuperAlgebra(labels, sc, parity=parity, field=f,
                     name=name or ("A(%s)" % alg.name))
    sigma = Matrix.identity(n, f)
    sigma[A_IDX, A_IDX] = f.zero
    sigma[B_IDX, B_IDX] = f.zero
    sigma[A_IDX, B_IDX] = f.one
    sigma[B_IDX, A_IDX] = f.one
    return AlgebraWithInvolution(A, sigma)


def a_of_j_pointwise(J, name=None):
    """A(J): pairing 3t(b_i b_j) and cross product J.cross(b_i, b_j)."""
    alg = J.algebra
    three = alg.field.of(3)
    return two_by_two(alg, lambda i, j: three * J.trace_of(alg.multiply(alg.e(i), alg.e(j))),
                      lambda i, j: J.cross(alg.e(i), alg.e(j)), name)


def a_of_cubic_pointwise(K, name=None):
    """A(K): pairing 3<b_i|b_j> and cross product 2 b_i b_j."""
    alg = K.algebra
    three, two = alg.field.of(3), alg.field.of(2)
    return two_by_two(alg, lambda i, j: three * K.trace_form(alg.e(i), alg.e(j)),
                      lambda i, j: [two * c for c in alg.multiply(alg.e(i), alg.e(j))], name)


def diag_transported(J, diag):
    """J in the basis diag(...) * (old basis), unit and trace row to match."""
    U = Matrix.identity(J.dim)
    for i, d in enumerate(diag):
        U[i, i] = Fraction(d)
    unit = [u / U[i, i] for i, u in enumerate(J.unit)]
    trace_row = [t * U[i, i] for i, t in enumerate(J.trace_row)]
    return JordanAlgebra(J.algebra.transported(U), unit, trace_row, provenance="custom")


def inner_derivation_pairs_by_basis(J, vectors):
    """The batch of tits.inner_derivation_pairs (ids j * m + l, flat index
    r * n + c, integers, D) by the other contraction order: every
    d_{b_a,b_b} on basis pairs is one commutators contraction of the left
    multiplications of J's table, and the pairs of the vectors one bilinear
    contraction of those."""
    n, m, f = J.dim, len(vectors), J.field
    alg = J.algebra
    (I, Jc, K), V, Dt = alg.coo
    keys, sums, _path = commutators(I, K, Jc, V, np.array(alg.parity, dtype=bool), n, f.p)
    cols, vals, Dx = rows_coo(vectors, f)
    (j, l, rc), d, _path = bilinear(((keys // n ** 3, keys // n ** 2 % n, keys % n ** 2),
                                     sums), (cols, vals), (cols, vals), f.p)
    return j * m + l, rc, d, Dt * Dt * Dx * Dx


def tensor_product_pointwise(C, Chat):
    """(structure constants, sigma) of C x C^: (a x x)(b x y) = ab x xy and
    sigma = conj x conj, one pair of table rows and one pair of conjugation
    entries at a time."""
    f = C.field
    nc, nd = C.dim, Chat.dim

    def idx(i, j):
        return i * nd + j

    sc = {}
    for i1 in range(nc):
        for i2 in range(nc):
            row_c = C.algebra.product_basis(i1, i2)
            for j1 in range(nd):
                for j2 in range(nd):
                    for kc, cc in row_c.items():
                        for kd, cd in Chat.algebra.product_basis(j1, j2).items():
                            accumulate(sc, idx(i1, j1), idx(i2, j2), idx(kc, kd), cc * cd)
    CC, CD = ([X.conj(X.algebra.e(i)) for i in range(X.dim)] for X in (C, Chat))
    sigma = Matrix.zeros(nc * nd, nc * nd, f)
    for i in range(nc):
        for j in range(nd):
            for p in range(nc):
                for q in range(nd):
                    sigma[idx(p, q), idx(i, j)] = CC[i][p] * CD[j][q]
    return sc, sigma


def h3_pointwise(Chat):
    """(structure constants, unit, trace row) of H3(C^) in the basis order
    of jordan.h3, one product at a time: e_i o e_i = e_i, e_{i+1} and
    e_{i+2} act on iota_i(x) by 1/2, iota_i(x) o iota_i(y) = 1/2 t(x conj(y))
    (e_{i+1} + e_{i+2}) and iota_i(x) o iota_{i+1}(y) = 1/2 iota_{i+2}(conj(xy)),
    with its commutative mirror; C.conj and C.trace pointwise."""
    f, d = Chat.field, Chat.dim
    n = 3 + 3 * d
    iota_idx = [[3 + i * d + j for j in range(d)] for i in range(3)]
    half = f.of(1) / f.of(2)
    sc = {}
    for i in range(3):
        accumulate(sc, i, i, i, f.one)
        for j in range(d):
            col = iota_idx[i][j]
            for off in (1, 2):
                accumulate(sc, (i + off) % 3, col, col, half)
                accumulate(sc, col, (i + off) % 3, col, half)
    tbar = [[Chat.trace(Chat.product(basis_vector(d, a, f), Chat.conj(basis_vector(d, b, f))))
             for b in range(d)] for a in range(d)]
    for i in range(3):
        for a in range(d):
            for b in range(d):
                c = half * tbar[a][b]
                accumulate(sc, iota_idx[i][a], iota_idx[i][b], (i + 1) % 3, c)
                accumulate(sc, iota_idx[i][a], iota_idx[i][b], (i + 2) % 3, c)
    for i in range(3):
        ip1, ip2 = (i + 1) % 3, (i + 2) % 3
        for a in range(d):
            for b in range(d):
                prod = Chat.conj(Chat.product(basis_vector(d, a, f), basis_vector(d, b, f)))
                for t, c in enumerate(prod):
                    k = iota_idx[ip2][t]
                    accumulate(sc, iota_idx[i][a], iota_idx[ip1][b], k, half * c)
                    accumulate(sc, iota_idx[ip1][b], iota_idx[i][a], k, half * c)
    unit = [f.one if i < 3 else f.zero for i in range(n)]
    third = f.of(1) / f.of(3)
    return sc, unit, [third if i < 3 else f.zero for i in range(n)]


def unimodular(parity, rng, field, steps):
    """A seeded product U of integer transvections I + c E_ab, a != b of one
    parity, and U^{-1}, the product of the I - c E_ab in reverse order:
    both integral, and U preserves parity.  a is drawn from the parity
    blocks of two or more elements (J(V, theta) has a one-element block)."""
    n = len(parity)
    U = [[int(r == c) for c in range(n)] for r in range(n)]
    Ui = [row[:] for row in U]
    mixed = [a for a in range(n) if list(parity).count(parity[a]) > 1]
    for _ in range(steps):
        a = rng.choice(mixed)
        b = rng.choice([b for b in range(n) if b != a and parity[b] == parity[a]])
        c = rng.choice((-2, -1, 1, 2))
        for row in U:               # U <- U (I + c E_ab): column b += c column a
            row[b] += c * row[a]
        Ui[a] = [x - c * y for x, y in zip(Ui[a], Ui[b])]   # U^-1 <- (I - c E_ab) U^-1
    return Matrix(U, field), Matrix(Ui, field)


# -- dense builders of the held maps -----------------------------------------

def lowered(M):
    """A Matrix lowered as the map checks read it (int_fast.rows_coo)."""
    return rows_coo(M.rows, M.field)


def invertible(M):
    """Whether a Matrix is square and invertible: algebra._invertible of it
    lowered."""
    return M.nrows == M.ncols and _invertible(lowered(M), M.nrows, M.field.p)


def phi41_dense(ca, AJ, J):
    """Phi of the first theorem, column by column: D_{v1,u2} -> diag(3,0),
    D_{u1,v2} -> diag(0,3), D_{e1-e2,u0} -> 2 in the x slot,
    D_{e2-e1,v0} -> 2 in the y slot, u0 x x -> x slot, v0 x x -> y slot."""
    f = AJ.algebra.field
    nj = J.dim

    def aj_vec(alpha, xvec, yvec, beta):
        """(alpha, x; y, beta) in the basis of A(J) = k + J + J + k."""
        return [f.of(alpha), *(xvec or vec_zero(nj, f)), *(yvec or vec_zero(nj, f)), f.of(beta)]

    unit2 = [f.of(2) * u for u in J.unit]
    cols = [aj_vec(3, None, None, 0), aj_vec(0, None, None, 3), aj_vec(0, unit2, None, 0),
            aj_vec(0, None, unit2, 0)]
    cols += [aj_vec(0, x, None, 0) for x in J.j0_basis()]
    cols += [aj_vec(0, None, x, 0) for x in J.j0_basis()]
    return Matrix.from_columns(cols, f)


def phi61_dense(T):
    """Phi of the second theorem, column by column:
    a x iota_0(x) -> -a x x, d_0(x) -> -(1/2) 1 x x."""
    C, d = T.C, T.J.source.dim
    f = C.field
    half = f.of(1) / f.of(2)

    def tp_vec(cvec, j, scale):
        v = vec_zero(C.dim * d, f)
        for p, cp in enumerate(cvec):
            if cp:
                v[p * d + j] = scale * cp
        return v

    cols = [tp_vec(a, j, f.of(-1)) for a in T.c0_basis for j in range(d)]
    cols += [tp_vec(C.unit, j, -half) for j in range(d)]
    return Matrix.from_columns(cols, f)


def jordan_to_aj_dense(J):
    """alpha 1 + x -> (3a/4, -a/4 + x/2; -a/4 + x/2, 3a/4), column by column."""
    f = J.field
    q34, q14, half = f.of(3) / f.of(4), f.of(1) / f.of(4), f.of(1) / f.of(2)
    cols = []
    for b in range(J.dim):
        v = J.algebra.e(b)
        alpha = J.trace_of(v)
        slot = [-q14 * alpha * u + half * (c - alpha * u) for c, u in zip(v, J.unit)]
        cols.append([q34 * alpha, *slot, *slot, q34 * alpha])
    return Matrix.from_columns(cols, f)


def psi_dense(J):
    """psi: T(Q,J)_(1,0) -> J, D_{p1,p2} -> 4*1 and p0 x x -> 2x."""
    f = J.field
    cols = [[f.of(4) * u for u in J.unit]] + [[f.of(2) * c for c in x] for x in J.j0_basis()]
    return Matrix.from_columns(cols, f)


def ak_to_ajv_dense(field=QQ):
    """The Kaplansky map A(K) -> A(J(V, theta)) entry by entry: the ends
    fixed, e -> 1, x -> -u, y -> 2v in the upper slot and e -> 1,
    x -> u, y -> -2v in the lower one."""
    f = field
    M = Matrix.zeros(8, 8, f)
    M[0, 0] = M[7, 7] = f.one
    for off, sgn in ((1, -f.one), (4, f.one)):
        M[off, off] = f.one
        M[off + 1, off + 1] = sgn
        M[off + 2, off + 2] = -sgn * f.of(2)
    return M


def iota_dense(ca, basis):
    """The inclusion of a coordinate algebra with the given basis, as the
    Matrix of its columns, and its products with phi and phi^2."""
    E = Matrix.from_columns(basis, ca.ambient.field)
    phi = ca.action["phi"]
    return [E, phi @ E, phi @ (phi @ E)]
