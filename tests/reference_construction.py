"""Fraction reference implementations of the construction, kept as test
oracles for the sparse exact contractions of the library.

Each builds its bilinear map one product at a time in field arithmetic and
solves every product with Subspace.coords: the brackets of der C, of
matrix Lie algebras, of T(C, J) and of the T62 variant, and the
coordinate algebra of an S4 action.  They share Matrix, Subspace.add/coords and the pointwise
field-arithmetic helpers (multiply, inner_derivation) with the library,
but none of its int_fast kernel or Subspace.coords_many.

Two more oracles share nothing with the library's elimination: the dense
Gauss-Jordan loop of a Matrix (dense_rref) and the associator rows of the
normalized-trace system, one triple of products at a time
(associator_rows).
"""

from magma_tits.algebra import accumulate
from magma_tits.composition import inner_derivation
from magma_tits.exact import Subspace, commutator, flatten_matrix, vec_is_zero


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
            D = inner_derivation(C, C.algebra.e(i), C.algebra.e(j))
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
            d = J.inner_derivation(vectors[i], vectors[j])
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
        return dspan.coords(flatten_matrix(J.inner_derivation(x, y).matrix), check=False)

    m = derC.dim if derC is not None else 0
    nd = dspan.dim
    off = m + nc * nj
    par = [J.algebra.parity_of_vector(x) for x in j0_basis]

    def tidx(i, j):
        return m + i * nj + j

    sc = {}
    if derC is not None:
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
            DC = derC.coords_pair(a, b) if derC is not None else []
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
                        d = J.inner_derivation(alg.e(j), alg.e(l))
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
    sigma = [span.coords(ca.conj_ambient(v)) for v in span.basis]
    return sc, sigma


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
