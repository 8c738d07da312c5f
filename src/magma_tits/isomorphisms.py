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

from .exact import QQ, Matrix, Subspace, vec_zero
from .algebra import _invertible, map_failures, outer_block
from .int_fast import compose, fold, fold_table, identity_coo, join, rows_coo, same_map
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
    even); ValueError unless M is tgt.n x src.n."""
    return map_failures(src, tgt, M, max_witnesses=max_witnesses)


class InvolutionHomomorphism:
    """A linear map of algebras with involution, verified exactly."""

    def __init__(self, source, target, matrix, name="Phi"):
        self.source = source
        self.target = target
        self.matrix = matrix
        self.name = name

    def verify(self, require_bijective=True):
        src, tgt, M = self.source.algebra, self.target.algebra, self.matrix
        if M.nrows != tgt.n or M.ncols != src.n:
            raise IsomorphismError("%s: matrix shape mismatch" % self.name)
        bad = homomorphism_failures(src, tgt, M)
        if bad:
            i, j = bad[0]
            raise IsomorphismError(
                "%s: not multiplicative, first failing pair (%s, %s)"
                % (self.name, src.basis[i], src.basis[j]))
        # M sigma = sigma' M: one same_map fold of the two lowered products
        f = src.field
        Ml, sigma, sigma_t = (rows_coo(A.rows, f)
                              for A in (M, self.source.sigma, self.target.sigma))
        if not same_map(compose(Ml, sigma, f.p), compose(sigma_t, Ml, f.p), f.p):
            raise IsomorphismError("%s: does not intertwine the involutions" % self.name)
        if require_bijective:
            if src.n != tgt.n or not _invertible(M):
                raise IsomorphismError("%s: not bijective" % self.name)
        return True

    def apply(self, v):
        return self.matrix.apply(v)

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
    """The six-row map on a coordinate algebra built over theorem41_basis."""
    f = AJ.algebra.field
    nj = J.dim
    m = ca.dim
    j0 = J.j0_basis()
    if m != 4 + 2 * len(j0):
        raise ValueError("coordinate algebra does not carry the distinguished basis")

    def aj_vec(alpha, xvec, yvec, beta):
        """(alpha, x; y, beta) in the basis of A(J) = k + J + J + k."""
        return [f.of(alpha), *(xvec or vec_zero(nj, f)), *(yvec or vec_zero(nj, f)), f.of(beta)]

    unit2 = [f.of(2) * u for u in J.unit]
    cols = [aj_vec(3, None, None, 0), aj_vec(0, None, None, 3), aj_vec(0, unit2, None, 0),
            aj_vec(0, None, unit2, 0)]
    cols += [aj_vec(0, x, None, 0) for x in j0] + [aj_vec(0, None, x, 0) for x in j0]
    Phi = Matrix.from_columns(cols, f)
    return InvolutionHomomorphism(ca.awi, AJ, Phi, name="Phi41")


def _require_jordan(J):
    """IsomorphismError naming the first basis triple on which J breaks the
    Jordan identity (JordanAlgebra.jordan_failure), if there is one."""
    if J.jordan_failure is not None:
        raise IsomorphismError("%s is not a Jordan algebra: the Jordan identity fails on the "
                               "basis triple (%s, %s, %s)"
                               % (J.name, *(J.algebra.basis[i] for i in J.jordan_failure)))


def theorem41(J, C=None, T=None):
    """Build everything for the first theorem and certify Phi.

    Without T, C defaults to the split Cayley algebra and T to T(C, J),
    both from the registry when J is a registry object (registry.tits_of),
    as A(J) is (registry.aj_of).
    Returns (T, ca, AJ, hom); raises IsomorphismError on any failure.
    """
    _require_jordan(J)
    C = C or (T.C if T is not None else composition_for("cayley", J))
    T = T if T is not None else tits_of(C, J)
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
    """a x iota_0(x) -> -a x x, d_0(x) -> -(1/2) 1 x x."""
    J = T.J
    Chat = J.source
    C = T.C
    f = C.field
    d = Chat.dim
    nc = len(T.c0_basis)
    half = f.of(1) / f.of(2)

    def tp_vec(cvec, j, scale):
        v = vec_zero(C.dim * d, f)
        for p, cp in enumerate(cvec):
            if cp:
                v[p * d + j] = scale * cp
        return v

    cols = [tp_vec(T.c0_basis[i], j, f.of(-1)) for i in range(nc) for j in range(d)]
    cols += [tp_vec(C.unit, j, -half) for j in range(d)]
    Phi = Matrix.from_columns(cols, f)
    return InvolutionHomomorphism(ca.awi, TP, Phi, name="Phi61")


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
    """alpha 1 + x -> (3a/4, -a/4 + x/2; -a/4 + x/2, 3a/4), J -> A(J)."""
    f = J.field
    nj = J.dim
    q34, q14, half = f.of(3) / f.of(4), f.of(1) / f.of(4), f.of(1) / f.of(2)
    cols = []
    for b in range(nj):
        v = J.algebra.e(b)
        alpha = J.trace_of(v)
        slot = [-q14 * alpha * u + half * (c - alpha * u) for c, u in zip(v, J.unit)]
        cols.append([q34 * alpha, *slot, *slot, q34 * alpha])    # A(J) = k + J + J + k
    M = Matrix.from_columns(cols, f)
    JI = AlgebraWithInvolution(J.algebra, Matrix.identity(nj, f))
    return InvolutionHomomorphism(JI, AJ, M, name="J->S")


def tqj_maps(J):
    """The quaternionic coordinate algebra is J itself, and T(Q,J) is the
    trace-free variant (Q0 x J) + d_{J,J}.

    Q, T(Q, J) and A(J) come from the registry when J is a registry object
    (registry.composition_for, registry.tits_of, registry.aj_of); the
    action on Q is built once per Q, so T(Q, J) over one Q share its blocks.
    Returns (hom_J_to_AJ, hom_ca_to_J, lie_iso_matrix, TQ, T62); all maps
    verified, IsomorphismError on failure.
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
    if Matrix.from_columns([hom_a.matrix.column(j) for j in range(J.dim)], f).rank() != J.dim:
        raise IsomorphismError("J -> S embedding is not injective")

    # (b) psi: ca -> J with D_{p1,p2} -> 4*1 and p0 x x -> 2x certifies
    # that the coordinate algebra is J itself
    cols = [[f.of(4) * u for u in J.unit]] + [[f.of(2) * c for c in x] for x in J.j0_basis()]
    psi = Matrix.from_columns(cols, f)
    JI = AlgebraWithInvolution(J.algebra, Matrix.identity(J.dim, f))
    hom_b = InvolutionHomomorphism(ca.awi, JI, psi, name="T(Q,J)10->J")
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
    one int_fast.fold_table places them."""
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
    lowered = fold_table([
        # D_r = ad(sum_i q_i p_i) -> sum_i q_i p_i x 1
        outer_block(q, rows_coo([J.unit], f), lambda i, r, _z, jj: (i * nJ + jj, r)),
        # a_i x x_j -> a_i x x_j, x_j in the full J basis
        outer_block(identity_coo(nc), rows_coo(TQ.j0_basis, f),
                    lambda i, _i, j, jj: (i * nJ + jj, TQ.der_dim + i * nj0 + j)),
        # d -> d: a change of basis of the same space
        (T62.d_offset + t, TQ.djj_offset + s, [Vd], Dd)], n, f.p)
    M = Matrix.from_coo(n, n, lowered, f)
    bad = homomorphism_failures(TQ.algebra, T62.algebra, M)
    if bad:
        raise IsomorphismError("T(Q,J) -> (Q0 x J) + d_{J,J} is not a homomorphism; "
                               "first failing pair %s" % (bad[0],))
    if not _invertible(lowered, n, f.p):
        raise IsomorphismError("T(Q,J) -> (Q0 x J) + d_{J,J} is not bijective")
    return M


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
    n = AK.algebra.n
    M = Matrix.zeros(n, n, f)
    M[0, 0] = f.one
    M[n - 1, n - 1] = f.one
    two = f.of(2)
    # slot bases are ordered e, x, y and 1, u, v
    for slot in (0, 1):
        off = 1 + slot * 3
        sgn = f.one if slot == 1 else -f.one
        M[off + 0, off + 0] = f.one           # e -> 1
        M[off + 1, off + 1] = sgn             # x -> -u upper, +u lower
        M[off + 2, off + 2] = -sgn * two      # y -> 2v upper, -2v lower
    hom = InvolutionHomomorphism(AK, AJV, M, name="AK->AJV")
    hom.verify()
    return hom
