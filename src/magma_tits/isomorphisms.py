"""Explicit isomorphisms between coordinate algebras and their models.

Four families are constructed and certified exactly:

  * the six-row map of the first coordinate-algebra theorem,
    T(Cayley, J)_(1,0) -> A(J):
        D_{v1,u2} -> diag(3,0),  D_{u1,v2} -> diag(0,3),
        D_{e1-e2,u0} -> 2 in the x slot, D_{e2-e1,v0} -> 2 in the y slot,
        u0 x x -> x slot,  v0 x x -> y slot;
  * the two-row map of the second coordinate-algebra theorem,
    T(C, H3(C^))_(1,0) -> C x C^ (right action):
        a x iota_0(x) -> -a x x,   d_0(x) -> -(1/2) 1 x x;
  * the quaternionic variant: T(Q,J)_(1,0) -> J (with the explicit
    alpha 1 + x -> (3a/4, -a/4 + x/2; ..., 3a/4) embedding J -> A(J)) and
    the Lie isomorphism T(Q,J) -> (Q0 x J) + d_{J,J};
  * the Kaplansky map A(K) -> A(J(V,theta)):
    gamma e + mu x + nu y -> gamma 1 - mu u + 2 nu v (upper slot),
    gamma 1 + mu u - 2 nu v (lower slot).

Verification failure raises: these maps are theorems, and a failure means
the tables, signs, or conventions upstream are wrong.
"""

import numpy as np

from .exact import QQ, Subspace, coo_rows, echelon
from .algebra import LinearMap, _invertible, lowered_map_failures, outer_block
from .int_fast import compose, fold, identity_coo, join, rows_coo, same_map
from .composition import s4_on_invariant_quaternion
from .structurable import AlgebraWithInvolution, a_of_j, a_of_cubic, tensor_product
from .jordan import jordan_super_jvtheta, kaplansky
from .tits import tits62_variant
from .registry import aj_of, composition_for, h3_of, tits_of
from .s4 import coordinate_algebra, s4_on_tits_left, s4_on_tits_right


class IsomorphismError(AssertionError):
    """A map the theory promises to be an isomorphism failed verification."""


def homomorphism_failures(src, tgt, M, max_witnesses=5):
    """The first max_witnesses pairs (i, j), sorted, where
    M(b_i b_j) != M(b_i) M(b_j) (no extra signs: the maps verified here are
    even), for M lowered as LinearMap.coo holds it (lowered_map_failures)."""
    return lowered_map_failures(src, tgt, M, max_witnesses=max_witnesses)


def _rows(f, vectors):
    """int_fast.rows_coo of vectors whose entries field.of takes."""
    return rows_coo([[f.of(c) for c in v] for v in vectors], f)


class InvolutionHomomorphism(LinearMap):
    """A linear map of algebras with involution, verified exactly: the
    LinearMap of their algebras, held lowered, with the two
    AlgebraWithInvolution it maps between."""

    def __init__(self, source, target, matrix, name="Phi"):
        super().__init__(source.algebra, target.algebra, matrix)
        self.source, self.target, self.name = source, target, name

    @classmethod
    def from_blocks(cls, source, target, blocks, name="Phi"):
        """The map of the blocks (rows, columns, factors, D), as LinearMap."""
        hom = super().from_blocks(source.algebra, target.algebra, blocks)
        hom.source, hom.target, hom.name = source, target, name
        return hom

    def verify(self, require_bijective=True):
        """IsomorphismError unless the held map is multiplicative, commutes
        with the held involutions and, if require_bijective, is invertible."""
        src, tgt, M, p = self.domain, self.codomain, self.coo, self.domain.field.p
        bad = homomorphism_failures(src, tgt, M)
        if bad:
            i, j = bad[0]
            raise IsomorphismError(
                "%s: not multiplicative, first failing pair (%s, %s)"
                % (self.name, src.basis[i], src.basis[j]))
        # M sigma = sigma' M: one same_map fold of the two products
        if not same_map(compose(M, self.source.involution.coo, p),
                        compose(self.target.involution.coo, M, p), p):
            raise IsomorphismError("%s: does not intertwine the involutions" % self.name)
        if require_bijective and (src.n != tgt.n or not _invertible(M, src.n, p)):
            raise IsomorphismError("%s: not bijective" % self.name)
        return True

    def __repr__(self):
        return "InvolutionHomomorphism(%s: %s -> %s)" % (
            self.name, self.source.algebra.name, self.target.algebra.name)


# ---------------------------------------------------------------------------
# first theorem: T(Cayley, J)_(1,0) = A(J)


def theorem41_basis(T):
    """The distinguished (1,0) basis: D_{v1,u2}, D_{u1,v2}, D_{e1-e2,u0},
    D_{e2-e1,v0}, then u0 x J0 and v0 x J0."""
    alg = T.C.algebra
    e1me2 = [a - b for a, b in zip(alg.e("e1"), alg.e("e2"))]
    e2me1 = [-x for x in e1me2]
    return (T.der_vectors([(alg.e("v1"), alg.e("u2")), (alg.e("u1"), alg.e("v2")),
                           (e1me2, alg.e("u0")), (e2me1, alg.e("v0"))])
            + T.tensor_vectors([(alg.e(a), x) for a in ("u0", "v0") for x in T.j0_basis]))


def phi_theorem41(ca, AJ, J):
    """The six-row map on a coordinate algebra built over theorem41_basis,
    folded from the blocks of its columns in A(J) = k + J + J + k."""
    f = AJ.algebra.field
    nj, n, m = J.dim, AJ.algebra.n, ca.dim
    j0 = J.j0_basis()
    if m != 4 + 2 * len(j0):
        raise ValueError("coordinate algebra does not carry the distinguished basis")
    (_z, u), U, Du = _rows(f, [J.unit])
    (t, x), X, Dx = _rows(f, j0)
    blocks = [(np.array([0, n - 1]), np.array([0, 1]), [np.array([3, 3])], 1),  # diag(3,0), (0,3)
              (1 + u, np.full_like(u, 2), [U, 2], Du),             # 2 in the x slot
              (1 + nj + u, np.full_like(u, 3), [U, 2], Du),        # 2 in the y slot
              (1 + x, 4 + t, [X], Dx),                             # u0 x J0 -> x slot
              (1 + nj + x, 4 + len(j0) + t, [X], Dx)]              # v0 x J0 -> y slot
    return InvolutionHomomorphism.from_blocks(ca.awi, AJ, blocks, name="Phi41")


def _require_jordan(J):
    """IsomorphismError naming the first basis triple on which J breaks the
    Jordan identity (JordanAlgebra.jordan_failure), if there is one."""
    if J.jordan_failure is not None:
        raise IsomorphismError("%s is not a Jordan algebra: the Jordan identity fails on the "
                               "basis triple (%s, %s, %s)"
                               % (J.name, *(J.algebra.basis[i] for i in J.jordan_failure)))


def theorem41(J, T=None):
    """Build everything for the first theorem and certify Phi.

    Without T, T is T(C, J) over the split Cayley algebra C, both from the
    registry when J is a registry object (registry.composition_for,
    registry.tits_of), as A(J) is (registry.aj_of).
    Returns (T, ca, AJ, hom); raises IsomorphismError on any failure.
    """
    _require_jordan(J)
    T = T if T is not None else tits_of(composition_for("cayley", J), J)
    action = s4_on_tits_left(T)
    ca = coordinate_algebra(T.algebra, action, basis=theorem41_basis(T))
    AJ = aj_of(J)
    hom = phi_theorem41(ca, AJ, J)
    hom.verify()
    return T, ca, AJ, hom


# ---------------------------------------------------------------------------
# second theorem: T(C, H3(C^))_(1,0) = C x C^


def theorem61_basis(T):
    """Distinguished (1,0) basis for the right action:
    a_i x iota_0(c^_j) then d_0(c^_j)."""
    J = T.J
    Chat = J.source
    iotas = [J.iota(0, Chat.algebra.e(j)) for j in range(Chat.dim)]
    e1me2 = [x - y for x, y in zip(J.algebra.e(J.e_index(1)), J.algebra.e(J.e_index(2)))]
    return (T.tensor_vectors([(a, x) for a in T.c0_basis for x in iotas])
            + T.djj_vectors([(e1me2, x) for x in iotas]))


def phi_theorem61(ca, TP, T):
    """a x iota_0(x) -> -a x x, d_0(x) -> -(1/2) 1 x x: the outer products
    (algebra.outer_block) of the C0 basis and of the unit with the identity
    on C^."""
    C, d, nc = T.C, T.J.source.dim, len(T.c0_basis)
    f = C.field

    def place(offset):
        """Entry q of vector i, copy j of C^, at (q x j, (offset + i) x j)."""
        return lambda i, q, j, _j: (q * d + j, (offset + i) * d + j)
    blocks = [outer_block(_rows(f, T.c0_basis), identity_coo(d), place(0), -1),
              outer_block(_rows(f, [C.unit]), identity_coo(d), place(nc), -1, 2)]
    return InvolutionHomomorphism.from_blocks(ca.awi, TP, blocks, name="Phi61")


def theorem61(C, Chat, T=None):
    """Build everything for the second theorem and certify Phi.

    Without T, H3(C^) and T(C, H3(C^)) come from the registry when C and C^
    are registry objects (registry.h3_of, registry.tits_of).
    Returns (T, ca, TP, hom).
    """
    J = T.J if T is not None else h3_of(Chat)
    T = T if T is not None else tits_of(C, J)
    action = s4_on_tits_right(T)
    ca = coordinate_algebra(T.algebra, action, basis=theorem61_basis(T))
    TP = tensor_product(C, Chat)
    hom = phi_theorem61(ca, TP, T)
    hom.verify()
    return T, ca, TP, hom


# ---------------------------------------------------------------------------
# quaternionic variant


def jordan_to_aj_map(J, AJ):
    """alpha 1 + x -> (3a/4, -a/4 + x/2; -a/4 + x/2, 3a/4), J -> A(J): on
    b_j, with a = t_j, the rows alpha and beta 3t_j/4 and each slot
    b_j/2 - 3t_j/4 1, folded from the trace row, the identity and the
    outer product (algebra.outer_block) of the trace row with the unit."""
    f, nj, n = J.field, J.dim, AJ.algebra.n
    trace, unit = _rows(f, [J.trace_row]), _rows(f, [J.unit])
    (_z, t), T, Dt = trace
    d = np.arange(nj)
    blocks = [(np.zeros_like(t), t, [T, 3], 4 * Dt), (np.full_like(t, n - 1), t, [T, 3], 4 * Dt)]
    for slot in (1, 1 + nj):
        blocks += [(slot + d, d, [np.ones(nj, dtype=np.int64)], 2),
                   outer_block(trace, unit, lambda _z, t, _w, u: (slot + u, t), -3, 4)]
    JI = AlgebraWithInvolution.from_blocks(J.algebra, [(d, d, [np.ones(nj, np.int64)], 1)])
    return InvolutionHomomorphism.from_blocks(JI, AJ, blocks, name="J->S")


def tqj_maps(J):
    """The quaternionic coordinate algebra is J itself, and T(Q,J) is the
    trace-free variant (Q0 x J) + d_{J,J}.

    Q, T(Q, J) and A(J) come from the registry when J is a registry object
    (registry.composition_for, registry.tits_of, registry.aj_of); the
    action on Q is built once per Q, so T(Q, J) over one Q share its blocks.
    Returns (hom_J_to_AJ, hom_ca_to_J, lie_iso, TQ, T62), lie_iso a
    LinearMap; all maps verified, IsomorphismError on failure.
    """
    _require_jordan(J)
    f = J.field
    Q = composition_for("quatq", J)
    TQ = tits_of(Q, J)
    action = s4_on_tits_left(TQ, base_action=s4_on_invariant_quaternion(Q))
    qalg = Q.algebra
    basis = (TQ.der_vectors([(qalg.e("p1"), qalg.e("p2"))])
             + TQ.tensor_vectors([(qalg.e("p0"), x) for x in TQ.j0_basis]))
    ca = coordinate_algebra(TQ.algebra, action, basis=basis)

    # (a) the explicit embedding J -> A(J) is an algebra-with-involution map
    AJ = aj_of(J)
    hom_a = jordan_to_aj_map(J, AJ)
    hom_a.verify(require_bijective=False)
    (R, C), V, D = hom_a.coo            # injective: its transpose has rank dim J
    if len(echelon(coo_rows(((C, R), V, D), J.dim, f.p), f.p, AJ.dim)[1]) != J.dim:
        raise IsomorphismError("J -> S embedding is not injective")

    # (b) psi: ca -> J with D_{p1,p2} -> 4*1 and p0 x x -> 2x certifies
    # that the coordinate algebra is J itself
    (t, r), V, D = _rows(f, [J.unit] + J.j0_basis())
    hom_b = InvolutionHomomorphism.from_blocks(ca.awi, hom_a.source,
                                               [(r, t, [V, np.where(t == 0, 4, 2)], D)],
                                               name="T(Q,J)10->J")
    hom_b.verify()

    # (c) the Lie isomorphism T(Q,J) -> (Q0 x J) + d_{J,J}
    T62 = tits62_variant(Q, J)
    lie = _tqj_lie_iso(TQ, T62)
    return hom_a, hom_b, lie, TQ, T62


def _tqj_lie_iso(TQ, T62):
    """D_{a,b} -> [a,b] x 1, a x x -> a x x, d -> d, verified Lie iso.

    Its blocks come from integers: der Q and d_{J,J} are their lowered
    matrices in the coordinates of ad(Q0) and of the D of T62 (one
    Subspace.coords_many each), the tensor block is the J0 basis, and
    LinearMap.from_blocks places them."""
    Q, J = TQ.C, TQ.J
    f = Q.field
    nJ, n = J.dim, TQ.algebra.n
    if T62.algebra.n != n:
        raise IsomorphismError("T62 variant has wrong dimension")
    # ad(Q0): the flattened L_q - R_q, (L_q - R_q)[k][j] = sum_i q_i (c^k_ij - c^k_ji)
    nq, nc, nj0 = Q.dim, len(TQ.c0_basis), len(TQ.j0_basis)
    (I, Jq, K), V, Dq = Q.algebra.coo
    (t, x), xv, Dx = rows_coo(TQ.c0_basis, f)
    (a, b), (c, d) = join(I, x), join(Jq, x)
    keys, sums, _path = fold([((t[b] * nq + K[a]) * nq + Jq[a], [V[a], xv[b]]),
                              ((t[d] * nq + K[c]) * nq + I[c], [V[c], xv[d], -1])], f.p)
    ad = Subspace(nq * nq, f)
    ad.add_many(keys // (nq * nq), keys % (nq * nq), sums, Dq * Dx)

    def coords(space, span, what):
        """A DerivationSpace's lowered matrices in span coordinates, as the
        lowered COO ((basis index, s), integers, D)."""
        (S, R, C), V, D = space.lowered
        ids, ks, V, D, outside = span.coords_many(S, R * space.n + C, V, D)
        if len(outside):
            raise IsomorphismError(what)
        return (ks, ids), V, D

    q = coords(TQ.derC, ad, "derivation of Q is not inner as ad")
    (t, s), Vd, Dd = coords(TQ.djj, T62.D_space, "d_{J,J} bases do not span the same space")
    lie = LinearMap.from_blocks(TQ.algebra, T62.algebra, [
        # D_r = ad(sum_i q_i p_i) -> sum_i q_i p_i x 1
        outer_block(q, rows_coo([J.unit], f), lambda i, r, _z, jj: (i * nJ + jj, r)),
        # a_i x x_j -> a_i x x_j, x_j in the full J basis
        outer_block(identity_coo(nc), rows_coo(TQ.j0_basis, f),
                    lambda i, _i, j, jj: (i * nJ + jj, TQ.der_dim + i * nj0 + j)),
        # d -> d: a change of basis of the same space
        (T62.d_offset + t, TQ.djj_offset + s, [Vd], Dd)])
    bad = homomorphism_failures(TQ.algebra, T62.algebra, lie.coo)
    if bad:
        raise IsomorphismError("T(Q,J) -> (Q0 x J) + d_{J,J} is not a homomorphism; "
                               "first failing pair %s" % (bad[0],))
    if not _invertible(lie.coo, n, f.p):
        raise IsomorphismError("T(Q,J) -> (Q0 x J) + d_{J,J} is not bijective")
    return lie


# ---------------------------------------------------------------------------
# the Kaplansky map


def ak_to_ajv(field=None):
    """A(K) -> A(J(V,theta)):
    upper slot gamma e + mu x + nu y -> gamma 1 - mu u + 2 nu v,
    lower slot gamma e + mu x + nu y -> gamma 1 + mu u - 2 nu v."""
    f = field or QQ
    K = kaplansky(f)
    JV = jordan_super_jvtheta(f)
    AK = a_of_cubic(K)
    AJV = a_of_j(JV)
    # basis alpha, (e, x, y), (e, x, y), beta onto alpha, (1, u, v), (1, u, v), beta
    d, scale = np.arange(AK.algebra.n), np.array([1, 1, -1, 2, 1, 1, -2, 1])
    hom = InvolutionHomomorphism.from_blocks(AK, AJV, [(d, d, [scale], 1)], name="AK->AJV")
    hom.verify()
    return hom
