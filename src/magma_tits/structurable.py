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

The construction is a contraction too: A(J) is linear in J's table, its
trace row and its unit, so the pairing and the cross product on all basis
pairs are int_fast folds of their COO columns, and the blocks of the 2x2
table are handed to SuperAlgebra.from_blocks.  C x C^
and its involution are outer products (algebra.outer_block) of the two
tables' COO and of the two held conjugations (conj_coo).
"""

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .algebra import (SuperAlgebra, EVEN, LinearMap, _find_unit, lowered_map_failures,
                      lowered_matrix, outer_block, trace_products)
from .int_fast import (INT64_MAX, compose, coo, distinct, fold, fold_blocks,
                       identity_coo, join, joined, rows_coo, same_map)


class AlgebraWithInvolution:
    """A SuperAlgebra together with an involutive superantiautomorphism,
    held as the LinearMap `involution` of the algebra: builders hand its
    blocks to from_blocks, the constructor lowers a Matrix once, and
    the Matrix `sigma` is built on first read."""

    def __init__(self, algebra, sigma):
        self.algebra = algebra
        self.involution = LinearMap.from_coo(algebra, algebra, lowered_matrix(
            sigma, algebra.n, algebra.n, algebra.field, "involution"))

    @classmethod
    def from_blocks(cls, algebra, blocks):
        """The algebra with the involution LinearMap.from_blocks(blocks)."""
        AI = cls.__new__(cls)
        AI.algebra, AI.involution = algebra, LinearMap.from_blocks(algebra, algebra, blocks)
        return AI

    @property
    def sigma(self):
        return self.involution.matrix

    @property
    def dim(self):
        return self.algebra.n

    def conj(self, x):
        return self.sigma.apply(x)

    def involution_failures(self):
        """The entry "sigma^2 != id" unless sigma is involutive, then the pairs
        (i, j) with sigma(b_i b_j) != (-1)^{|i||j|} sigma(b_j) sigma(b_i), sorted:
        the map failures of the even sigma into b_i o b_j = (-1)^{|i||j|} b_j b_i,
        read off the held involution; sigma^2 = id is one int_fast.same_map fold."""
        alg = self.algebra
        p = alg.field.p
        sigma = self.involution.coo
        out = []
        if not same_map(compose(sigma, sigma, p), identity_coo(alg.n), p):
            out.append("sigma^2 != id")
        (I, J, K), V, D = alg.coo
        odd = np.array(alg.parity, dtype=bool)
        opposite = SuperAlgebra.from_coo(alg.basis, (J, I, K), np.where(odd[I] & odd[J], -V, V), D,
                                         parity=alg.parity, field=alg.field)
        return out + lowered_map_failures(alg, opposite, sigma)

    def verify_involution(self):
        bad = self.involution_failures()
        if bad:
            raise ValueError("%s: involution fails: %r" % (self.algebra.name, bad[:5]))
        return True

    def __repr__(self):
        return "AlgebraWithInvolution(%s)" % self.algebra.name


def a_of_j(J):
    """The 2x2 construction over a Jordan (super)algebra with normalized
    trace: pairing 3t(x y'), cross product x X y'.

    One contraction of J's COO table c and held trace t and unit u
    (trace_coo, unit_coo; each over its own denominator D_c, D_t, D_u,
    residues with D = 1 over GF(p)):
    t(b_i b_j) = sum_k c^k_ij t_k is algebra.trace_products over D_c D_t,
    and the cross product the blocks of its five terms."""
    alg = J.algebra
    if J.trace_row is None:
        raise ValueError("%s carries no normalized trace" % alg.name)
    n = alg.n
    (I, Jj, K), V, Dc = alg.coo
    ((Ti,), T, Dt), ((Ui,), U, Du) = J.trace_coo, J.unit_coo
    (Pi, Pj), P, Dp = trace_products(alg, J.trace_coo)
    t, j = np.indices((len(T), n)).reshape(2, -1)
    s, r, u = np.indices((len(T), len(T), len(U))).reshape(3, -1)
    q, m = np.indices((len(P), len(U))).reshape(2, -1)
    return _two_by_two(alg, ((Pi, Pj), [P, 3], Dp), [
        (I, Jj, K, [V, 2], Dc),                                         # 2xy
        (Ti[t], j, j, [T[t], -3], Dt),                                  # -3t(x)y
        (j, Ti[t], j, [T[t], -3], Dt),                                  # -3t(y)x
        (Ti[s], Ti[r], Ui[u], [T[s], T[r], U[u], 9], Dt * Dt * Du),     # 9t(x)t(y)1
        (Pi[q], Pj[q], Ui[m], [P[q], U[m], -3], Dp * Du)])              # -3t(xy)1


def a_of_cubic(K):
    """The 2x2 construction over an admissible cubic algebra (cross = 2xy,
    diagonal pairing 3<x|y'>)."""
    alg = K.algebra
    form, F, Df = rows_coo(K.trace_form_matrix.rows, alg.field)
    table, C, Dc = alg.coo
    return _two_by_two(alg, (form, [F, 3], Df), [(*table, [C, 2], Dc)])


def _two_by_two(alg, pairing, cross):
    """The algebra {(alpha, x; y, beta)} over alg with the diagonal-swap
    involution, given the COO ((i, j), factors, D) of the pairing and the
    blocks (i, j, k, factors, D) of the cross product on basis pairs, each
    value the product of the factors over D: alpha/beta act on their
    slots, x y' -> pairing alpha, y x' -> pairing beta, y X y' into the x
    slot and x X x' into the y slot.

    Basis order: alpha slot, x slot (copy of alg), y slot (copy of alg),
    beta slot."""
    f = alg.field
    nj = alg.n
    n = 2 + 2 * nj
    A_IDX, B_IDX = 0, n - 1
    labels = (["alpha"] + ["x:%s" % b for b in alg.basis]
              + ["y:%s" % b for b in alg.basis] + ["beta"])
    parity = [EVEN] + list(alg.parity) + list(alg.parity) + [EVEN]
    x = np.arange(1, 1 + nj)
    y = x + nj
    a, b = np.full(nj, A_IDX), np.full(nj, B_IDX)
    ends = np.array([A_IDX, B_IDX])
    # alpha alpha', beta beta', then alpha x', beta y', x beta', y alpha'
    blocks = [(i, j, k, [np.ones(len(i), dtype=np.int64)], 1)
              for i, j, k in ((ends, ends, ends), (a, x, x), (b, y, y), (x, b, x), (y, a, y))]
    (Pi, Pj), P, Dp = pairing
    blocks += [(1 + Pi, 1 + nj + Pj, np.full(len(Pi), A_IDX), P, Dp),     # 3t(x y')
               (1 + nj + Pi, 1 + Pj, np.full(len(Pi), B_IDX), P, Dp)]     # 3t(y x')
    for Ci, Cj, Ck, X, Dx in cross:
        blocks += [(1 + nj + Ci, 1 + nj + Cj, 1 + Ck, X, Dx),            # y X y'
                   (1 + Ci, 1 + Cj, 1 + nj + Ck, X, Dx)]                 # x X x'
    A = SuperAlgebra.from_blocks(labels, blocks, parity=parity, field=f, name="A(%s)" % alg.name)
    swap = np.arange(n)
    swap[[A_IDX, B_IDX]] = B_IDX, A_IDX
    return AlgebraWithInvolution.from_blocks(A, [(swap, np.arange(n), [np.ones(n, np.int64)], 1)])


def tensor_product(C, Chat):
    """C x C^ with (a x x)(b x y) = ab x xy and conjugate a^bar x x^bar: the
    table and sigma are outer products (algebra.outer_block) of the COO of
    the two tables and of the two held conjugations (conj_coo)."""
    f = C.field
    nd = Chat.dim
    labels = ["%s(x)%s" % (a, b) for a in C.algebra.basis for b in Chat.algebra.basis]
    block = outer_block(C.algebra.coo, Chat.algebra.coo,
                        lambda i1, i2, kc, j1, j2, kd: (i1 * nd + j1, i2 * nd + j2, kc * nd + kd))
    A = SuperAlgebra.from_blocks(labels, [block], field=f, name="%s(x)%s" % (C.name, Chat.name))
    sigma = outer_block(C.conj_coo, Chat.conj_coo, lambda p, i, q, j: (p * nd + q, i * nd + j))
    return AlgebraWithInvolution.from_blocks(A, [sigma])


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
    with keys (u,x,y,z,k).  That last and largest one goes through
    int_fast.fold_blocks: each of its four joins is driven by a T_u or
    T_{sigma(u)} entry and takes u from it, so past the term budget (C x C^
    from cayley x quaternion up) it folds one block of u at a time, in
    order, and stops at the block where max_witnesses failing (u,x,y) are
    known.  The verdict is whether any
    coefficient is nonzero; witnesses are the first max_witnesses of the
    sorted (u,x,y) with a nonzero coefficient.
    """
    alg = AI.algebra
    n = alg.n
    if n == 0:
        return StructurableReport(True, 0, 0, name=alg.name)
    if n ** 5 > INT64_MAX:
        raise ValueError("dimension %d too large for int64 keys (u,x,y,z,k)" % n)
    unit = _find_unit(alg)
    if unit is None:
        raise ValueError("%s is not unital" % alg.name)
    f = alg.field
    p = f.p
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

    (I, J, K), C, _Dt = alg.coo
    (Sw, Sq), S, Ds = AI.involution.coo
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

    # every term takes u from the right-hand row of its join, a T_u or T_{sigma u} entry
    groups = [
        joined(Vk, Ti, Tu, lambda v, t: [       # T_u V_{x,y} z
            (pack(Tu[t], Vx[v], Vy[v], Vz[v], To[t]), [V[v], T[t], Ds])]),
        joined(Vz, To, Tu, lambda v, t: [       # V_{x,y} T_u z
            (pack(Tu[t], Vx[v], Vy[v], Ti[t], Vk[v]),
             [V[v], T[t], sign(par[Tu[t]] * (par[Vx[v]] + par[Vy[v]])), -Ds])]),
        joined(Vx, To, Tu, lambda v, t: [       # V_{T_u x, y} z
            (pack(Tu[t], Ti[t], Vy[v], Vz[v], Vk[v]), [V[v], T[t], -Ds])]),
        joined(Vy, So, Su, lambda v, s: [       # V_{x, T_{sigma u} y} z
            (pack(Su[s], Vx[v], Si[s], Vz[v], Vk[v]),
             [V[v], TS[s], sign(par[Su[s]] * par[Vx[v]])])]),
    ]
    keys, _sums, path = fold_blocks(groups, step=n * n, first=max(max_witnesses, 1), p=p,
                                    leading=True)
    bad = distinct(keys // (n * n))[:max_witnesses]
    failures = list(zip(*(col.tolist() for col in unpack(bad, 3))))
    return StructurableReport(not len(keys), n, n ** 3, failures=failures, name=alg.name,
                              path=path)
