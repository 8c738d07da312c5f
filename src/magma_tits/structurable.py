"""Algebras with involution: A(J), A(A) for admissible cubic A, C x C^.

A(J) is the 2x2 block space {(alpha, x; y, beta)} over a Jordan algebra J
with normalized trace, multiplied through the cross product

    x X y = 2xy - 3t(x)y - 3t(y)x + (9t(x)t(y) - 3t(xy)) 1,

with the diagonal-swap involution.  For an admissible cubic algebra the
cross product degenerates to 2xy and the trace form replaces 3t_J(xy').
The structurable checker verifies Allison's operator identity

    [T_u, V_{x,y}] = V_{T_u x, y} - V_{x, T_{sigma(u)} y},
    V_{x,y} z = (x sigma(y)) z + (z sigma(y)) x - (z sigma(x)) y,
    T_u = V_{u,1},

with Koszul signs in the super case (a term acquires (-1)^{|p||q|} whenever
the symbols p, q transpose relative to the argument order (x, y, z), and the
operator commutator/substitutions are graded).  The check is a sparse exact
contraction of the table, the involution and the unit over QQ or GF(p).
"""

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .exact import Matrix, vec_eq
from .algebra import SuperAlgebra, EVEN, accumulate
from .int_fast import INT64_MAX, coo, fold, join


class AlgebraWithInvolution:
    """A SuperAlgebra together with an involutive superantiautomorphism."""

    def __init__(self, algebra, sigma):
        if sigma.nrows != algebra.n or sigma.ncols != algebra.n:
            raise ValueError("involution matrix has wrong shape")
        self.algebra = algebra
        self.sigma = sigma

    @property
    def dim(self):
        return self.algebra.n

    def conj(self, x):
        return self.sigma.apply(x)

    def involution_failures(self):
        """Pairs where sigma fails sigma^2 = id or the superantiautomorphism law."""
        alg, sigma = self.algebra, self.sigma
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

    def verify_involution(self):
        bad = self.involution_failures()
        if bad:
            raise ValueError("%s: involution fails: %r" % (self.algebra.name, bad[:5]))
        return True

    def hermitian_basis(self):
        """Basis of {z : sigma(z) = z}."""
        M = self.sigma - Matrix.identity(self.algebra.n, self.algebra.field)
        return M.kernel_basis()

    def skew_basis(self):
        M = self.sigma + Matrix.identity(self.algebra.n, self.algebra.field)
        return M.kernel_basis()

    def __repr__(self):
        return "AlgebraWithInvolution(%s)" % self.algebra.name


def a_of_j(J, name=None):
    """The 2x2 construction over a Jordan (super)algebra with normalized trace.

    Basis order: alpha slot, x slot (copy of J), y slot (copy of J), beta slot.
    """
    alg = J.algebra
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

    three = f.of(3)
    sc = {}

    def add_vec(i, j, vec, offset):
        for t, c in enumerate(vec):
            if c:
                accumulate(sc, i, j, offset + t, c)

    # alpha/beta against everything
    accumulate(sc, A_IDX, A_IDX, A_IDX, f.one)        # alpha alpha'
    accumulate(sc, B_IDX, B_IDX, B_IDX, f.one)        # beta beta'
    for i in range(nj):
        accumulate(sc, A_IDX, xi(i), xi(i), f.one)    # alpha x'
        accumulate(sc, B_IDX, yi(i), yi(i), f.one)    # beta y'
        accumulate(sc, xi(i), B_IDX, xi(i), f.one)    # beta' x
        accumulate(sc, yi(i), A_IDX, yi(i), f.one)    # alpha' y
    # trace pairings and cross products
    for i in range(nj):
        for j in range(nj):
            tij = three * J.trace_of(alg.multiply(alg.e(i), alg.e(j)))
            accumulate(sc, xi(i), yi(j), A_IDX, tij)  # alpha alpha' + 3t(x y')
            accumulate(sc, yi(i), xi(j), B_IDX, tij)  # beta beta' + 3t(y x')
            cr = J.cross(alg.e(i), alg.e(j))
            add_vec(yi(i), yi(j), cr, 1)              # y X y' into the x slot
            add_vec(xi(i), xi(j), cr, 1 + nj)         # x X x' into the y slot
    A = SuperAlgebra(labels, sc, parity=parity, field=f,
                     name=name or ("A(%s)" % J.name))
    sigma = Matrix.identity(n, f)
    sigma[A_IDX, A_IDX] = f.zero
    sigma[B_IDX, B_IDX] = f.zero
    sigma[A_IDX, B_IDX] = f.one
    sigma[B_IDX, A_IDX] = f.one
    return AlgebraWithInvolution(A, sigma)


def a_of_cubic(K, name=None):
    """The 2x2 construction over an admissible cubic algebra (cross = 2xy,
    diagonal pairing 3<x|y'>)."""
    alg = K.algebra
    f = alg.field
    nk = alg.n
    n = 2 + 2 * nk
    labels = (["alpha"] + ["x:%s" % b for b in alg.basis]
              + ["y:%s" % b for b in alg.basis] + ["beta"])
    parity = [EVEN] + list(alg.parity) + list(alg.parity) + [EVEN]
    A_IDX, B_IDX = 0, n - 1

    def xi(i):
        return 1 + i

    def yi(i):
        return 1 + nk + i

    three = f.of(3)
    two = f.of(2)
    sc = {}

    def add_vec(i, j, vec, offset, scale):
        for t, c in enumerate(vec):
            if c:
                accumulate(sc, i, j, offset + t, scale * c)

    accumulate(sc, A_IDX, A_IDX, A_IDX, f.one)
    accumulate(sc, B_IDX, B_IDX, B_IDX, f.one)
    for i in range(nk):
        accumulate(sc, A_IDX, xi(i), xi(i), f.one)
        accumulate(sc, B_IDX, yi(i), yi(i), f.one)
        accumulate(sc, xi(i), B_IDX, xi(i), f.one)
        accumulate(sc, yi(i), A_IDX, yi(i), f.one)
    for i in range(nk):
        for j in range(nk):
            tij = three * K.trace_form(alg.e(i), alg.e(j))
            accumulate(sc, xi(i), yi(j), A_IDX, tij)
            accumulate(sc, yi(i), xi(j), B_IDX, tij)
            prod = alg.multiply(alg.e(i), alg.e(j))
            add_vec(yi(i), yi(j), prod, 1, two)         # 2 y y'
            add_vec(xi(i), xi(j), prod, 1 + nk, two)    # 2 x x'
    A = SuperAlgebra(labels, sc, parity=parity, field=f,
                     name=name or ("A(%s)" % alg.name))
    sigma = Matrix.identity(n, f)
    sigma[A_IDX, A_IDX] = f.zero
    sigma[B_IDX, B_IDX] = f.zero
    sigma[A_IDX, B_IDX] = f.one
    sigma[B_IDX, A_IDX] = f.one
    return AlgebraWithInvolution(A, sigma)


def tensor_product(C, Chat, name=None):
    """C x C^ with (a x x)(b x y) = ab x xy and conjugate a^bar x x^bar."""
    f = C.field
    nc, nd = C.dim, Chat.dim
    labels = ["%s(x)%s" % (a, b) for a in C.algebra.basis for b in Chat.algebra.basis]

    def idx(i, j):
        return i * nd + j

    sc = {}
    for i1 in range(nc):
        for i2 in range(nc):
            row_c = C.algebra.product_basis(i1, i2)
            if not row_c:
                continue
            for j1 in range(nd):
                for j2 in range(nd):
                    row_d = Chat.algebra.product_basis(j1, j2)
                    if not row_d:
                        continue
                    tgt = {}
                    for kc, cc in row_c.items():
                        for kd, cd in row_d.items():
                            tgt[idx(kc, kd)] = cc * cd
                    sc[(idx(i1, j1), idx(i2, j2))] = tgt
    A = SuperAlgebra(labels, sc, field=f, name=name or ("%s(x)%s" % (C.name, Chat.name)))
    CC = C.conj_matrix()
    CD = Chat.conj_matrix()
    sigma = Matrix.zeros(nc * nd, nc * nd, f)
    for i in range(nc):
        for j in range(nd):
            col_c = CC.column(i)
            col_d = CD.column(j)
            for p in range(nc):
                if not col_c[p]:
                    continue
                for q in range(nd):
                    if col_d[q]:
                        sigma[idx(p, q), idx(i, j)] = col_c[p] * col_d[q]
    return AlgebraWithInvolution(A, sigma)


@dataclass
class StructurableReport:
    ok: bool
    dim: int
    triples_checked: int
    failures: list = dataclass_field(default_factory=list)
    name: str = ""
    path: str = ""      # arithmetic of the final sum, "int64" or "python-int"; "" if none ran

    def __str__(self):
        if self.ok:
            return ("structurable identity OK on %s: dim %d, %d triples"
                    % (self.name, self.dim, self.triples_checked))
        lines = ["structurable identity FAILS on %s" % self.name]
        for u, x, y in self.failures[:10]:
            lines.append("  witness triple (u,x,y) = (%d,%d,%d)" % (u, x, y))
        return "\n".join(lines)


def check_structurable(AI, max_witnesses=10):
    """Exhaustive check of the structurable operator identity on basis triples.

    With c the table, sigma the involution and 1 the unit,

        G(p,q,r) = (b_p sigma(b_q)) b_r,
        V_{x,y} z = G(x,y,z) + (-1)^{|x||y| + |y||z| + |z||x|} G(z,y,x)
                    - (-1)^{|z|(|x|+|y|)} G(z,x,y),
        T_u z = V_{u,1} z,

    each monomial of V carrying the Koszul sign of its symbol permutation
    relative to (x, y, z).  The check is that for all basis u, x, y, z

        D_sigma ([T_u, V_{x,y}] z - V_{T_u x, y} z)
            + (-1)^{|u||x|} V_{x, T_{sigma(u)} y} z = 0,

    the graded commutator carrying (-1)^{|u|(|x|+|y|)}; D_sigma, the scale
    of the integer sigma, appears once in the last term through sigma(u).
    Every stage is a sparse exact contraction (int_fast.join and
    int_fast.fold) of denominator-cleared integers over QQ, residues over
    GF(p): x sigma(y), then G, V, T_u and T_{sigma(u)}, then the identity
    with keys (u,x,y,z,k).  Witnesses are the sorted (u,x,y) with a
    nonzero coefficient.
    """
    alg = AI.algebra
    n = alg.n
    if n == 0:
        return StructurableReport(True, 0, 0, name=alg.name)
    if n ** 5 > INT64_MAX:
        raise ValueError("dimension %d too large for int64 keys (u,x,y,z,k)" % n)
    from .s4 import _find_unit
    unit = _find_unit(alg)
    if unit is None:
        raise ValueError("%s is not unital" % alg.name)
    f = alg.field
    p = None if f.is_rational else f.p
    par = np.array(alg.parity, dtype=np.int64)

    def pack(*cols):
        key = cols[0]
        for c in cols[1:]:
            key = key * n + c
        return key

    def unpack(keys, width):
        return [keys // n ** (width - 1 - t) % n for t in range(width)]

    def sign(odd):
        return 1 - 2 * (odd % 2)

    (I, J, K), C, _Dt = coo([((i, j, k), c) for (i, j), row in alg.sc.items()
                             for k, c in row.items()], f, 3)
    (Sw, Sq), S, Ds = coo([((w, q), c) for w, row in enumerate(AI.sigma.rows)
                           for q, c in enumerate(row) if c], f, 2)
    (Ui,), U, _Du = coo([((i,), c) for i, c in enumerate(unit) if c], f, 1)

    # x sigma(y) = sum_q S[q,y] b_x b_q, then G(p,q,r) = (b_p sigma(b_q)) b_r
    t, s = join(J, Sw)
    keys, M, _ = fold([(pack(I[t], Sq[s], K[t]), [C[t], S[s]])], p)
    Mx, My, Ma = unpack(keys, 3)
    m, t = join(Ma, I)
    keys, G, _ = fold([(pack(Mx[m], My[m], J[t], K[t]), [M[m], C[t]])], p)
    Gp, Gq, Gr, Gk = unpack(keys, 4)
    keys, V, _ = fold([
        (keys, [G]),
        (pack(Gr, Gq, Gp, Gk), [G, sign(par[Gp] * (par[Gr] + par[Gq]) + par[Gr] * par[Gq])]),
        (pack(Gq, Gr, Gp, Gk), [G, -sign(par[Gp] * (par[Gq] + par[Gr]))]),
    ], p)
    Vx, Vy, Vz, Vk = unpack(keys, 4)

    # T_u z = sum_y unit[y] V(u,y,z), as (u, in, out); T_{sigma u} likewise
    v, w = join(Vy, Ui)
    keys, T, _ = fold([(pack(Vx[v], Vz[v], Vk[v]), [V[v], U[w]])], p)
    Tu, Ti, To = unpack(keys, 3)
    t, s = join(Tu, Sw)
    keys, TS, _ = fold([(pack(Sq[s], Ti[t], To[t]), [T[t], S[s]])], p)
    Su, Si, So = unpack(keys, 3)

    v, t = join(Vk, Ti)                 # T_u V_{x,y} z
    terms = [(pack(Tu[t], Vx[v], Vy[v], Vz[v], To[t]), [V[v], T[t], Ds])]
    v, t = join(Vz, To)                 # V_{x,y} T_u z
    terms.append((pack(Tu[t], Vx[v], Vy[v], Ti[t], Vk[v]),
                  [V[v], T[t], sign(par[Tu[t]] * (par[Vx[v]] + par[Vy[v]])), -Ds]))
    v, t = join(Vx, To)                 # V_{T_u x, y} z
    terms.append((pack(Tu[t], Ti[t], Vy[v], Vz[v], Vk[v]), [V[v], T[t], -Ds]))
    v, s = join(Vy, So)                 # V_{x, T_{sigma u} y} z
    terms.append((pack(Su[s], Vx[v], Si[s], Vz[v], Vk[v]),
                  [V[v], TS[s], sign(par[Su[s]] * par[Vx[v]])]))
    keys, _sums, path = fold(terms, p)
    bad = np.unique(keys // (n * n))[:max_witnesses]
    failures = list(zip(*(col.tolist() for col in unpack(bad, 3))))
    return StructurableReport(not failures, n, n ** 3, failures=failures, name=alg.name,
                              path=path)
