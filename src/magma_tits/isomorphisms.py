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

from .exact import Matrix, vec_zero
from .algebra import _invertible, map_failures
from .composition import split_cayley, invariant_quaternion, s4_on_invariant_quaternion
from .structurable import AlgebraWithInvolution, a_of_j, a_of_cubic, tensor_product
from .jordan import h3, jordan_super_jvtheta, kaplansky
from .tits import tits, tits62_variant
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
        lhs = M @ self.source.sigma
        rhs = self.target.sigma @ M
        if lhs != rhs:
            raise IsomorphismError("%s: does not intertwine the involutions" % self.name)
        if require_bijective:
            if src.n != tgt.n or not _invertible(M):
                raise IsomorphismError("%s: not bijective" % self.name)
        return True

    def apply(self, v):
        return self.matrix.apply(v)

    def inverse_matrix(self):
        return self.matrix.inverse()

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
    basis = [
        T.der_vector(alg.e("v1"), alg.e("u2")),
        T.der_vector(alg.e("u1"), alg.e("v2")),
        T.der_vector(e1me2, alg.e("u0")),
        T.der_vector(e2me1, alg.e("v0")),
    ]
    for x in T.j0_basis:
        basis.append(T.tensor_vector(alg.e("u0"), x))
    for x in T.j0_basis:
        basis.append(T.tensor_vector(alg.e("v0"), x))
    return basis


def phi_theorem41(ca, AJ, J):
    """The six-row map on a coordinate algebra built over theorem41_basis."""
    f = AJ.algebra.field
    nj = J.dim
    m = ca.dim
    j0 = J.j0_basis()
    if m != 4 + 2 * len(j0):
        raise ValueError("coordinate algebra does not carry the distinguished basis")
    n_t = AJ.algebra.n

    def aj_vec(alpha, xvec, yvec, beta):
        v = vec_zero(n_t, f)
        v[0] = f.of(alpha)
        v[n_t - 1] = f.of(beta)
        if xvec is not None:
            for i, c in enumerate(xvec):
                v[1 + i] = c
        if yvec is not None:
            for i, c in enumerate(yvec):
                v[1 + nj + i] = c
        return v

    two = f.of(2)
    cols = [
        aj_vec(3, None, None, 0),
        aj_vec(0, None, None, 3),
        aj_vec(0, [two * u for u in J.unit], None, 0),
        aj_vec(0, None, [two * u for u in J.unit], 0),
    ]
    for x in j0:
        cols.append(aj_vec(0, x, None, 0))
    for x in j0:
        cols.append(aj_vec(0, None, x, 0))
    Phi = Matrix.from_columns(cols, f)
    return InvolutionHomomorphism(ca.awi, AJ, Phi, name="Phi41")


def theorem41(J, C=None, T=None):
    """Build everything for the first theorem and certify Phi.

    Returns (T, ca, AJ, hom); raises IsomorphismError on any failure.
    """
    C = C or (T.C if T is not None else split_cayley(J.field))
    T = T if T is not None else tits(C, J)
    action = s4_on_tits_left(T)
    ca = coordinate_algebra(T.algebra, action, basis=theorem41_basis(T))
    AJ = a_of_j(J)
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
    basis = []
    for a in T.c0_basis:
        for j in range(Chat.dim):
            basis.append(T.tensor_vector(a, J.iota(0, Chat.algebra.e(j))))
    e1me2 = [x - y for x, y in zip(J.algebra.e(J.e_index(1)), J.algebra.e(J.e_index(2)))]
    for j in range(Chat.dim):
        basis.append(T.djj_vector(e1me2, J.iota(0, Chat.algebra.e(j))))
    return basis


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

    cols = []
    for i in range(nc):
        for j in range(d):
            cols.append(tp_vec(T.c0_basis[i], j, f.of(-1)))
    for j in range(d):
        cols.append(tp_vec(C.unit, j, -half))
    Phi = Matrix.from_columns(cols, f)
    return InvolutionHomomorphism(ca.awi, TP, Phi, name="Phi61")


def theorem61(C, Chat, T=None):
    """Build everything for the second theorem and certify Phi.

    Returns (T, ca, TP, hom).
    """
    J = T.J if T is not None else h3(Chat)
    T = T if T is not None else tits(C, J)
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
    n_t = AJ.algebra.n
    q34, q14, half = f.of(3) / f.of(4), f.of(1) / f.of(4), f.of(1) / f.of(2)
    cols = []
    for b in range(nj):
        v = J.algebra.e(b)
        alpha = J.trace_of(v)
        x = [c - alpha * u for c, u in zip(v, J.unit)]
        col = vec_zero(n_t, f)
        col[0] = q34 * alpha
        col[n_t - 1] = q34 * alpha
        for i in range(nj):
            slotval = -q14 * alpha * J.unit[i] + half * x[i]
            col[1 + i] = slotval
            col[1 + nj + i] = slotval
        cols.append(col)
    M = Matrix.from_columns(cols, f)
    JI = AlgebraWithInvolution(J.algebra, Matrix.identity(nj, f))
    return InvolutionHomomorphism(JI, AJ, M, name="J->S")


def tqj_maps(J):
    """The quaternionic coordinate algebra is J itself, and T(Q,J) is the
    trace-free variant (Q0 x J) + d_{J,J}.

    Returns (hom_J_to_AJ, hom_ca_to_J, lie_iso_matrix, TQ, T62); all maps
    verified, IsomorphismError on failure.
    """
    f = J.field
    Q = invariant_quaternion(f)
    TQ = tits(Q, J)
    action = s4_on_tits_left(TQ, base_action=s4_on_invariant_quaternion(Q))
    qalg = Q.algebra
    basis = [TQ.der_vector(qalg.e("p1"), qalg.e("p2"))]
    for x in TQ.j0_basis:
        basis.append(TQ.tensor_vector(qalg.e("p0"), x))
    ca = coordinate_algebra(TQ.algebra, action, basis=basis)

    # (a) the explicit embedding J -> A(J) is an algebra-with-involution map
    AJ = a_of_j(J)
    hom_a = jordan_to_aj_map(J, AJ)
    hom_a.verify(require_bijective=False)
    if Matrix.from_columns([hom_a.matrix.column(j) for j in range(J.dim)], f).rank() != J.dim:
        raise IsomorphismError("J -> S embedding is not injective")

    # (b) psi: ca -> J with D_{p1,p2} -> 4*1 and p0 x x -> 2x certifies
    # that the coordinate algebra is J itself
    j0 = J.j0_basis()
    cols = [[f.of(4) * u for u in J.unit]]
    for x in j0:
        cols.append([f.of(2) * c for c in x])
    psi = Matrix.from_columns(cols, f)
    JI = AlgebraWithInvolution(J.algebra, Matrix.identity(J.dim, f))
    hom_b = InvolutionHomomorphism(ca.awi, JI, psi, name="T(Q,J)10->J")
    hom_b.verify()

    # (c) the Lie isomorphism T(Q,J) -> (Q0 x J) + d_{J,J}
    T62 = tits62_variant(Q, J)
    lie = _tqj_lie_iso(TQ, T62)
    return hom_a, hom_b, lie, TQ, T62


def _tqj_lie_iso(TQ, T62):
    """D_{a,b} -> [a,b] x 1, a x x -> a x x, d -> d, verified Lie iso."""
    Q, J = TQ.C, TQ.J
    f = Q.field
    nJ = J.dim
    n = TQ.algebra.n
    if T62.algebra.n != n:
        raise IsomorphismError("T62 variant has wrong dimension")
    cols = []
    # der Q block: solve D = ad_q, map to q x 1
    adbasis = [Q.algebra.left_mult_matrix(a) - Q.algebra.right_mult_matrix(a)
               for a in TQ.c0_basis]
    stack = Matrix.from_columns(
        [[m.rows[i][j] for i in range(Q.dim) for j in range(Q.dim)] for m in adbasis], f)
    for D in TQ.derC.matrices:
        flat = [D.rows[i][j] for i in range(Q.dim) for j in range(Q.dim)]
        q = stack.solve(flat)
        if q is None:
            raise IsomorphismError("derivation of Q is not inner as ad")
        col = vec_zero(n, f)
        for i, ci in enumerate(q):
            if ci:
                for jj, cu in enumerate(J.unit):
                    if cu:
                        col[T62.tensor_index(i, jj)] = ci * cu
        cols.append(col)
    # tensor block: p_i x x_j with x_j expressed in the full J basis
    for i in range(len(TQ.c0_basis)):
        for j, x in enumerate(TQ.j0_basis):
            col = vec_zero(n, f)
            for jj, c in enumerate(x):
                if c:
                    col[T62.tensor_index(i, jj)] = c
            cols.append(col)
    # d_{J,J} block: identity on the space, change of chosen basis
    off62 = T62.d_offset
    for M in TQ.djj.matrices:
        coords = T62.D_space.coords(
            [M.rows[i][j] for i in range(nJ) for j in range(nJ)])
        if coords is None:
            raise IsomorphismError("d_{J,J} bases do not span the same space")
        col = vec_zero(n, f)
        for s, c in enumerate(coords):
            col[off62 + s] = c
        cols.append(col)
    M = Matrix.from_columns(cols, f)
    bad = homomorphism_failures(TQ.algebra, T62.algebra, M)
    if bad:
        raise IsomorphismError("T(Q,J) -> (Q0 x J) + d_{J,J} is not a homomorphism; "
                               "first failing pair %s" % (bad[0],))
    if not _invertible(M):
        raise IsomorphismError("T(Q,J) -> (Q0 x J) + d_{J,J} is not bijective")
    return M


# ---------------------------------------------------------------------------
# the Kaplansky map


def ak_to_ajv(field=None):
    """A(K) -> A(J(V,theta)):
    upper slot gamma e + mu x + nu y -> gamma 1 - mu u + 2 nu v,
    lower slot gamma e + mu x + nu y -> gamma 1 + mu u - 2 nu v."""
    from .exact import QQ
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
