"""so3-module machinery for Lie algebras with S4 symmetry.

gl(W) for the 3-dimensional S4-module W (standard times alternating) splits
as so3 + h + z, with the distinguished basis

    H0 = E33, H1 = E11, H2 = E22,
    G0 = E12+E21, G1 = E23+E32, G2 = E13+E31,
    D0 = E21-E12, D1 = E32-E23, D2 = E13-E31,

satisfying [D_i, D_{i+1}] = D_{i+2}.  A Lie algebra g containing an
so3-triple (d0, d1, d2) whose Casimir ad(d0)^2 + ad(d1)^2 + ad(d2)^2 has
eigenvalues inside {0, -2, -6} decomposes into trivial, adjoint and
5-dimensional isotypic parts; its bracket is then determined by coefficient
data (the nine invariant maps) on multiplicity spaces H, S and the
centralizer d, and conjugation on the so3/h factors synthesizes an S4 action
by automorphisms whose coordinate algebra H + S is unital.
"""

from dataclasses import dataclass

from .exact import (
    QQ, Matrix, Subspace, vec_zero, vec_add, vec_scale, vec_eq, vec_is_zero,
    basis_vector, flatten_matrix, commutator,
)
from .algebra import SuperAlgebra, EVEN, accumulate
from .s4 import GroupAction

W_LABELS = ["w1", "w2", "w0"]


def _m3(rows, field=QQ):
    return Matrix(rows, field)


def hgd_matrices(field=QQ):
    """The nine distinguished 3x3 matrices, keyed H0..H2, G0..G2, D0..D2."""
    return {
        "H0": _m3([[0, 0, 0], [0, 0, 0], [0, 0, 1]], field),
        "H1": _m3([[1, 0, 0], [0, 0, 0], [0, 0, 0]], field),
        "H2": _m3([[0, 0, 0], [0, 1, 0], [0, 0, 0]], field),
        "G0": _m3([[0, 1, 0], [1, 0, 0], [0, 0, 0]], field),
        "G1": _m3([[0, 0, 0], [0, 0, 1], [0, 1, 0]], field),
        "G2": _m3([[0, 0, 1], [0, 0, 0], [1, 0, 0]], field),
        "D0": _m3([[0, -1, 0], [1, 0, 0], [0, 0, 0]], field),
        "D1": _m3([[0, 0, 0], [0, 0, -1], [0, 1, 0]], field),
        "D2": _m3([[0, 0, 1], [0, 0, 0], [-1, 0, 0]], field),
    }


def so3_basis(field=QQ):
    m = hgd_matrices(field)
    return [m["D0"], m["D1"], m["D2"]]


def h_basis(field=QQ):
    """Basis of h: G0, G1, G2, H0-H1, H1-H2."""
    m = hgd_matrices(field)
    return [m["G0"], m["G1"], m["G2"], m["H0"] - m["H1"], m["H1"] - m["H2"]]


def s4_on_w(field=QQ):
    """The 3-dimensional representation on W = span{w1, w2, w0}:
    tau1 = diag(-1,-1,1), tau2 = diag(1,-1,-1), phi cycles w0->w1->w2->w0,
    tau: w0 -> -w0, w1 <-> -w2."""
    f = field
    tau1 = _m3([[-1, 0, 0], [0, -1, 0], [0, 0, 1]], f)
    tau2 = _m3([[1, 0, 0], [0, -1, 0], [0, 0, -1]], f)
    phi = _m3([[0, 0, 1], [1, 0, 0], [0, 1, 0]], f)
    tau = _m3([[0, -1, 0], [-1, 0, 0], [0, 0, -1]], f)
    return GroupAction(None, tau1, tau2, phi, tau, name="S4 on W")


def det3(M):
    r = M.rows
    return (r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
            - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
            + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0]))


# ---------------------------------------------------------------------------
# the nine invariant maps


def invariant_maps(field=QQ):
    """The nine so3- and S4-equivariant bilinear maps on (so3, h, z),
    realized in gl(W); returned as (name, src1, src2, dst, function)."""
    f = field
    two3 = f.of(2) / f.of(3)
    I3 = Matrix.identity(3, f)

    def comm(A, B):
        return A @ B - B @ A

    def jordan_traceless(A, B):
        AB = A @ B
        BA = B @ A
        return AB + BA - (AB + BA).trace() * I3_scale(f) if False else \
            AB + BA - I3.scale(two3 * AB.trace())

    def trace_part(A, B):
        return I3.scale((A @ B).trace())

    def zero_map(A, B):
        return Matrix.zeros(3, 3, f)

    return [
        ("so3xso3->so3", "so3", "so3", "so3", comm),
        ("so3xso3->h", "so3", "so3", "h", jordan_traceless),
        ("so3xso3->z", "so3", "so3", "z", trace_part),
        ("so3xh->so3", "so3", "h", "so3", lambda A, X: A @ X + X @ A),
        ("so3xh->h", "so3", "h", "h", comm),
        ("so3xh->z", "so3", "h", "z", zero_map),
        ("hxh->so3", "h", "h", "so3", comm),
        ("hxh->h", "h", "h", "h", jordan_traceless),
        ("hxh->z", "h", "h", "z", trace_part),
    ]


def I3_scale(f):
    return Matrix.identity(3, f)


def _space_basis(name, field):
    if name == "so3":
        return so3_basis(field)
    if name == "h":
        return h_basis(field)
    return [Matrix.identity(3, field)]


def check_invariant_maps(field=QQ):
    """so3- and S4-equivariance of all nine maps, checked exactly."""
    maps = invariant_maps(field)
    Ds = so3_basis(field)
    act = s4_on_w(field)
    failures = []
    for name, s1, s2, dst, fn in maps:
        B1 = _space_basis(s1, field)
        B2 = _space_basis(s2, field)
        Bd = Subspace.from_vectors([flatten_matrix(M) for M in _space_basis(dst, field)],
                                   9, field)
        for A in B1:
            for B in B2:
                val = fn(A, B)
                if not Bd.contains(flatten_matrix(val)):
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
    return failures


# ---------------------------------------------------------------------------
# B1 coefficient data and assembly


@dataclass
class B1Data:
    """Multiplicity-space data: H with a distinguished unit, S, and the
    centralizer d acting on both, with the bilinear coefficient maps."""
    field: object
    hdim: int
    sdim: int
    ddim: int
    unit_h: list
    circ_HH: list      # [j][k] -> H coords (symmetric, 1 o a = a)
    brk_HH: list       # [j][k] -> S coords (skew, [1,a] = 0)
    brk_HS: list       # [j][k] -> H coords ([1,x] = 0)
    circ_HS: list      # [j][k] -> S coords (1 o x = x)
    circ_SS: list      # [j][k] -> H coords (symmetric)
    brk_SS: list       # [j][k] -> S coords (skew)
    d_HH: list         # [j][k] -> d coords (skew)
    d_SS: list         # [j][k] -> d coords (skew)
    act_dH: list       # [r][j] -> H coords
    act_dS: list       # [r][j] -> S coords
    brk_dd: list       # [r][s] -> d coords
    h_parity: list = None
    s_parity: list = None
    d_parity: list = None

    def __post_init__(self):
        if self.h_parity is None:
            self.h_parity = [EVEN] * self.hdim
        if self.s_parity is None:
            self.s_parity = [EVEN] * self.sdim
        if self.d_parity is None:
            self.d_parity = [EVEN] * self.ddim

    def validate(self):
        """Unit laws and (super)symmetries of the coefficient maps."""
        f = self.field
        one = self.unit_h
        idx1 = [j for j, c in enumerate(one) if c]

        def lincomb(table, coords):
            out = None
            for j, c in enumerate(coords):
                if c:
                    term = [c * v for v in table[j]]
                    out = term if out is None else vec_add(out, term)
            return out

        for a in range(self.hdim):
            if not vec_eq(lincomb([row[a] for row in self.circ_HH], one),
                          basis_vector(self.hdim, a, f)):
                return False
            if not vec_is_zero(lincomb([row[a] for row in self.brk_HH], one)):
                return False
        for x in range(self.sdim):
            if not vec_is_zero(lincomb([row[x] for row in self.brk_HS], one)):
                return False
            if not vec_eq(lincomb([row[x] for row in self.circ_HS], one),
                          basis_vector(self.sdim, x, f)):
                return False

        def signed(par_j, par_k):
            return -1 if (par_j and par_k) else 1

        for j in range(self.hdim):
            for k in range(self.hdim):
                s = signed(self.h_parity[j], self.h_parity[k])
                if not vec_eq(self.circ_HH[j][k], vec_scale(f.of(s), self.circ_HH[k][j])):
                    return False
                if not vec_eq(self.brk_HH[j][k], vec_scale(f.of(-s), self.brk_HH[k][j])):
                    return False
                if not vec_eq(self.d_HH[j][k], vec_scale(f.of(-s), self.d_HH[k][j])):
                    return False
        for j in range(self.sdim):
            for k in range(self.sdim):
                s = signed(self.s_parity[j], self.s_parity[k])
                if not vec_eq(self.circ_SS[j][k], vec_scale(f.of(s), self.circ_SS[k][j])):
                    return False
                if not vec_eq(self.brk_SS[j][k], vec_scale(f.of(-s), self.brk_SS[k][j])):
                    return False
                if not vec_eq(self.d_SS[j][k], vec_scale(f.of(-s), self.d_SS[k][j])):
                    return False
        return True


def _so3_structure(field):
    """Structure tables of gl(W) pieces used by the assembly."""
    f = field
    Ds = so3_basis(f)
    Hs = h_basis(f)
    so3_span = Subspace.from_vectors([flatten_matrix(M) for M in Ds], 9, f)
    h_span = Subspace.from_vectors([flatten_matrix(M) for M in Hs], 9, f)
    I3 = Matrix.identity(3, f)
    two3 = f.of(2) / f.of(3)

    def so3c(M):
        return so3_span.coords(flatten_matrix(M))

    def hc(M):
        return h_span.coords(flatten_matrix(M))

    comm_DD = [[so3c(commutator(A, B)) for B in Ds] for A in Ds]
    sym_DD = [[hc(A @ B + B @ A - I3.scale(two3 * (A @ B).trace())) for B in Ds] for A in Ds]
    tr_DD = [[(A @ B).trace() for B in Ds] for A in Ds]
    acirc_DH = [[so3c(A @ X + X @ A) for X in Hs] for A in Ds]
    comm_DH = [[hc(commutator(A, X)) for X in Hs] for A in Ds]
    comm_HH = [[so3c(commutator(X, Y)) for Y in Hs] for X in Hs]
    sym_HH = [[hc(X @ Y + Y @ X - I3.scale(two3 * (X @ Y).trace())) for Y in Hs] for X in Hs]
    tr_HH = [[(X @ Y).trace() for Y in Hs] for X in Hs]
    return {
        "comm_DD": comm_DD, "sym_DD": sym_DD, "tr_DD": tr_DD,
        "acirc_DH": acirc_DH, "comm_DH": comm_DH,
        "comm_HH": comm_HH, "sym_HH": sym_HH, "tr_HH": tr_HH,
    }


def assemble_b1(data, name="b1"):
    """The algebra (so3 x H) + (h x S) + d with the six-bullet bracket:

      [A x a, B x b] = [A,B] x (a o b)
                       - (AB + BA - 2/3 tr(AB) I) x (1/2)[a,b] + tr(AB) d_{a,b},
      [A x a, X x x] = -(AX + XA) x (1/2)[a,x] + [A,X] x (a o x),
      [X x x, Y x y] = [X,Y] x (x o y)
                       - (XY + YX - 2/3 tr(XY) I) x (1/2)[x,y] + tr(XY) d_{x,y},
      [d, A x a] = A x d(a),  [d, X x x] = X x d(x),  d a subalgebra.

    Jacobi is not assumed; callers verify.  Basis order: adjoint copies
    (D0, D1, D2 per H-basis element), then h copies (G0, G1, G2, H0-H1,
    H1-H2 per S-basis element), then the d basis.
    """
    f = data.field
    st = _so3_structure(f)
    mh, ms, md = data.hdim, data.sdim, data.ddim
    n = 3 * mh + 5 * ms + md
    off_s = 3 * mh
    off_d = 3 * mh + 5 * ms

    def aidx(i, j):
        return 3 * j + i

    def hidx(x, j):
        return off_s + 5 * j + x

    labels = ["D%d(x)h%d" % (i, j) for j in range(mh) for i in range(3)]
    labels += ["h%d(x)s%d" % (x, j) for j in range(ms) for x in range(5)]
    labels += ["d%d" % r for r in range(md)]
    parity = [data.h_parity[j] for j in range(mh) for _ in range(3)]
    parity += [data.s_parity[j] for j in range(ms) for _ in range(5)]
    parity += list(data.d_parity)

    sc = {}

    half = f.of(1) / f.of(2)
    # adjoint x adjoint
    for i1 in range(3):
        for i2 in range(3):
            cDD = st["comm_DD"][i1][i2]
            sDD = st["sym_DD"][i1][i2]
            tDD = st["tr_DD"][i1][i2]
            for j1 in range(mh):
                for j2 in range(mh):
                    src, dst = aidx(i1, j1), aidx(i2, j2)
                    for m, ci in enumerate(cDD):
                        if ci:
                            for t, cc in enumerate(data.circ_HH[j1][j2]):
                                if cc:
                                    accumulate(sc, src, dst, aidx(m, t), ci * cc)
                    for m, ci in enumerate(sDD):
                        if ci:
                            for t, cb in enumerate(data.brk_HH[j1][j2]):
                                if cb:
                                    accumulate(sc, src, dst, hidx(m, t), -half * ci * cb)
                    if tDD:
                        for t, cd in enumerate(data.d_HH[j1][j2]):
                            if cd:
                                accumulate(sc, src, dst, off_d + t, tDD * cd)
    # adjoint x h and h x adjoint
    for i1 in range(3):
        for x2 in range(5):
            ac = st["acirc_DH"][i1][x2]
            cm = st["comm_DH"][i1][x2]
            for j1 in range(mh):
                for j2 in range(ms):
                    src, dst = aidx(i1, j1), hidx(x2, j2)
                    out = []
                    for m, ci in enumerate(ac):
                        if ci:
                            for t, cb in enumerate(data.brk_HS[j1][j2]):
                                if cb:
                                    out.append((aidx(m, t), -half * ci * cb))
                    for m, ci in enumerate(cm):
                        if ci:
                            for t, cc in enumerate(data.circ_HS[j1][j2]):
                                if cc:
                                    out.append((hidx(m, t), ci * cc))
                    sgn = -1 if (data.h_parity[j1] and data.s_parity[j2]) else 1
                    for k, c in out:
                        accumulate(sc, src, dst, k, c)
                        accumulate(sc, dst, src, k, -c if sgn > 0 else c)
    # h x h
    for x1 in range(5):
        for x2 in range(5):
            cm = st["comm_HH"][x1][x2]
            sm = st["sym_HH"][x1][x2]
            tm = st["tr_HH"][x1][x2]
            for j1 in range(ms):
                for j2 in range(ms):
                    src, dst = hidx(x1, j1), hidx(x2, j2)
                    for m, ci in enumerate(cm):
                        if ci:
                            for t, cc in enumerate(data.circ_SS[j1][j2]):
                                if cc:
                                    accumulate(sc, src, dst, aidx(m, t), ci * cc)
                    for m, ci in enumerate(sm):
                        if ci:
                            for t, cb in enumerate(data.brk_SS[j1][j2]):
                                if cb:
                                    accumulate(sc, src, dst, hidx(m, t), -half * ci * cb)
                    if tm:
                        for t, cd in enumerate(data.d_SS[j1][j2]):
                            if cd:
                                accumulate(sc, src, dst, off_d + t, tm * cd)
    # d acting
    for r in range(md):
        pr = data.d_parity[r]
        for j in range(mh):
            img = data.act_dH[r][j]
            sgn = -1 if (pr and data.h_parity[j]) else 1
            for i in range(3):
                for t, c in enumerate(img):
                    if c:
                        accumulate(sc, off_d + r, aidx(i, j), aidx(i, t), c)
                        accumulate(sc, aidx(i, j), off_d + r, aidx(i, t), -c if sgn > 0 else c)
        for j in range(ms):
            img = data.act_dS[r][j]
            sgn = -1 if (pr and data.s_parity[j]) else 1
            for x in range(5):
                for t, c in enumerate(img):
                    if c:
                        accumulate(sc, off_d + r, hidx(x, j), hidx(x, t), c)
                        accumulate(sc, hidx(x, j), off_d + r, hidx(x, t), -c if sgn > 0 else c)
        for s in range(md):
            for t, c in enumerate(data.brk_dd[r][s]):
                if c:
                    accumulate(sc, off_d + r, off_d + s, off_d + t, c)

    return SuperAlgebra(labels, sc, parity=parity, field=f, name=name,
                        is_lie_claimed=True)


def b1data_from_jordan(J, name_unused=None):
    """Coefficient data of the classical one-space variant: H = J (any
    Jordan algebra), S = 0, d = span of the commutators [L_x, L_y], with
    d_{a,b} = (1/2)[L_a, L_b].  Assembled, this is the (so3 x J) + d bracket
    [A x x, B x y] = [A,B] x xy + (1/2) tr(AB) [L_x, L_y]."""
    f = J.field
    nJ = J.dim
    alg = J.algebra
    span = Subspace(nJ * nJ, f)
    mats = []
    dpar = []
    for i in range(nJ):
        for j in range(i, nJ):
            d = J.inner_derivation(alg.e(i), alg.e(j))
            if span.add(flatten_matrix(d.matrix)):
                mats.append(d.matrix)
                dpar.append(d.parity)
    md = span.dim
    half = f.of(1) / f.of(2)
    circ_HH = [[None] * nJ for _ in range(nJ)]
    d_HH = [[None] * nJ for _ in range(nJ)]
    for i in range(nJ):
        for j in range(nJ):
            circ_HH[i][j] = list(alg.multiply(alg.e(i), alg.e(j)))
            dm = J.inner_derivation(alg.e(i), alg.e(j)).matrix.scale(half)
            d_HH[i][j] = span.coords(flatten_matrix(dm), check=False) if md else []
    act_dH = [[list(M.column(j)) for j in range(nJ)] for M in mats]
    brk_dd = []
    for r, A in enumerate(mats):
        row = []
        for s, B in enumerate(mats):
            C = A @ B
            C = C + (B @ A) if (dpar[r] and dpar[s]) else C - (B @ A)
            row.append(span.coords(flatten_matrix(C), check=False))
        brk_dd.append(row)
    return B1Data(
        field=f, hdim=nJ, sdim=0, ddim=md, unit_h=list(J.unit),
        circ_HH=circ_HH,
        brk_HH=[[[] for _ in range(nJ)] for _ in range(nJ)],
        brk_HS=[[] for _ in range(nJ)],
        circ_HS=[[] for _ in range(nJ)],
        circ_SS=[], brk_SS=[], d_HH=d_HH, d_SS=[],
        act_dH=act_dH, act_dS=[[] for _ in range(md)],
        brk_dd=brk_dd,
        h_parity=list(alg.parity), d_parity=dpar,
    )


# ---------------------------------------------------------------------------
# decomposition under an embedded so3


@dataclass
class DecompositionReport:
    ok: bool
    m_adjoint: int
    m_h: int
    m_trivial: int
    bases: dict
    triple: list
    residual_dim: int = 0
    name: str = ""

    def multiplicities(self):
        return (self.m_adjoint, self.m_h, self.m_trivial)

    def __str__(self):
        if self.ok:
            return ("%s: multiplicities adjoint %d, five-dim %d, trivial %d"
                    % (self.name, self.m_adjoint, self.m_h, self.m_trivial))
        return ("%s: decomposition FAILS to span (residual dimension %d); "
                "eigenvalues outside {0,-2,-6} occur" % (self.name, self.residual_dim))


def decompose(g, triple, name=None):
    """Isotypic decomposition of g under the so3-triple via the Casimir
    Omega = ad(d0)^2 + ad(d1)^2 + ad(d2)^2: kernels of Omega + 2, Omega + 6,
    Omega are the adjoint, five-dimensional and trivial parts.  A failure
    to span is a legitimate negative outcome, reported not raised.

    Restricted to the rational field: the eigenvalue separation argument
    relies on complete reducibility, which can fail over GF(p) when p is
    small relative to the dimension.
    """
    f = g.field
    if not f.is_rational:
        raise ValueError("the decomposer is restricted to the rational field")
    n = g.n
    d0, d1, d2 = triple
    for (a, b, c) in ((d0, d1, d2), (d1, d2, d0), (d2, d0, d1)):
        if not vec_eq(g.multiply(a, b), c):
            raise ValueError("triple does not satisfy [d_i, d_{i+1}] = d_{i+2}")
    ads = [g.ad_matrix(v) for v in triple]
    Omega = ads[0] @ ads[0] + ads[1] @ ads[1] + ads[2] @ ads[2]
    I = Matrix.identity(n, f)
    ker2 = (Omega + I.scale(2)).kernel_basis()
    ker6 = (Omega + I.scale(6)).kernel_basis()
    ker0 = Omega.kernel_basis()
    total = len(ker2) + len(ker6) + len(ker0)
    bases = {"adjoint": ker2, "h": ker6, "trivial": ker0}
    rname = name or g.name
    if total != n:
        return DecompositionReport(False, 0, 0, 0, bases, list(triple),
                                   residual_dim=n - total, name=rname)
    if len(ker2) % 3 or len(ker6) % 5:
        return DecompositionReport(False, 0, 0, 0, bases, list(triple),
                                   residual_dim=0, name=rname)
    return DecompositionReport(True, len(ker2) // 3, len(ker6) // 5, len(ker0),
                               bases, list(triple), name=rname)


class B1Extraction:
    """The equivariant identification Psi: (so3 x H) + (h x S) + d -> g."""

    def __init__(self, g, report, data, psi, hvecs, svecs):
        self.g = g
        self.report = report
        self.data = data
        self.psi = psi            # Matrix, columns in assemble_b1 order
        self.psi_inv = psi.inverse()
        self.hvecs = hvecs
        self.svecs = svecs


def _kernel_within(g, op, component):
    """Basis of {v in span(component) : op(v) = 0}."""
    if not component:
        return []
    B = Matrix.from_columns(component, g.field)
    big = op @ B
    sols = big.kernel_basis()
    return [B.apply(c) for c in sols]


def _module_copy_map(R_mats, start_abstract, ad_ops, start_concrete, dim):
    """Generate a module copy in lockstep: returns the list of (abstract
    coords, concrete vector) spanning pairs, built by applying the abstract
    operators R_i and the concrete operators ad_ops[i] simultaneously."""
    f = start_concrete and None
    pairs = [(start_abstract, start_concrete)]
    span = Subspace(dim, R_mats[0].field)
    span.add(start_abstract)
    frontier = [(start_abstract, start_concrete)]
    while frontier and span.dim < dim:
        new_frontier = []
        for absv, conc in frontier:
            for R, ad in zip(R_mats, ad_ops):
                na = R.apply(absv)
                if span.add(na):
                    nc = ad(conc)
                    pairs.append((na, nc))
                    new_frontier.append((na, nc))
                    if span.dim == dim:
                        break
            if span.dim == dim:
                break
        frontier = new_frontier
    if span.dim != dim:
        raise ValueError("module copy is not generated by the starting vector")
    return pairs


def extract_b1(g, report):
    """Read the B1 coefficient data and the identification Psi from a
    successful decomposition."""
    if not report.ok:
        raise ValueError("decomposition did not span g")
    f = g.field
    n = g.n
    triple = report.triple
    ads = [g.ad_matrix(v) for v in triple]
    # multiplicity-space representatives: kernels of ad(d0) inside components
    hvecs = _kernel_within(g, ads[0], report.bases["adjoint"])
    svecs = _kernel_within(g, ads[0], report.bases["h"])
    dvecs = report.bases["trivial"]
    mh, ms, md = len(hvecs), len(svecs), len(dvecs)
    if (mh, ms, md) != (report.m_adjoint, report.m_h, report.m_trivial):
        raise ValueError("multiplicity-space extraction mismatch")

    Ds = so3_basis(f)
    Hs = h_basis(f)
    so3_span = Subspace.from_vectors([flatten_matrix(M) for M in Ds], 9, f)
    h_span = Subspace.from_vectors([flatten_matrix(M) for M in Hs], 9, f)
    R3 = [Matrix.from_columns(
        [so3_span.coords(flatten_matrix(commutator(D, B))) for B in Ds], f)
        for D in Ds]
    R5 = [Matrix.from_columns(
        [h_span.coords(flatten_matrix(commutator(D, X))) for X in Hs], f)
        for D in Ds]
    ad_ops = [lambda v, M=ads[i]: M.apply(v) for i in range(3)]

    # adjoint copies: start from D0 = (1,0,0)
    cols = [None] * (3 * mh + 5 * ms + md)
    for j, h in enumerate(hvecs):
        pairs = _module_copy_map(R3, basis_vector(3, 0, f), ad_ops, h, 3)
        A = Matrix.from_columns([p[0] for p in pairs], f).inverse()
        conc = [p[1] for p in pairs]
        for i in range(3):
            target = A.apply(basis_vector(3, i, f))
            v = vec_zero(n, f)
            for c, w in zip(target, conc):
                if c:
                    v = vec_add(v, vec_scale(c, w))
            cols[3 * j + i] = v
    # five-dim copies: start from Z = 2 H0 - H1 - H2 = 2 (H0-H1) + (H1-H2)
    zcoords = [f.zero, f.zero, f.zero, f.of(2), f.one]
    for j, s in enumerate(svecs):
        pairs = _module_copy_map(R5, zcoords, ad_ops, s, 5)
        A = Matrix.from_columns([p[0] for p in pairs], f).inverse()
        conc = [p[1] for p in pairs]
        for x in range(5):
            target = A.apply(basis_vector(5, x, f))
            v = vec_zero(n, f)
            for c, w in zip(target, conc):
                if c:
                    v = vec_add(v, vec_scale(c, w))
            cols[3 * mh + 5 * j + x] = v
    off_d = 3 * mh + 5 * ms
    for r, d in enumerate(dvecs):
        cols[off_d + r] = list(d)
    psi = Matrix.from_columns(cols, f)
    psi_inv = psi.inverse()

    def decompose_vec(v):
        return psi_inv.apply(v)

    def read(coords, offset, block, width, count):
        """Coordinates in one (operator, multiplicity) slice."""
        return [coords[offset + width * j + block] for j in range(count)]

    # unit of H: d0 = D0 x 1
    unit_h = read(decompose_vec(triple[0]), 0, 0, 3, mh)

    def bracket(a, b):
        return g.multiply(a, b)

    zero_h = [f.zero] * mh
    zero_s = [f.zero] * ms
    zero_d = [f.zero] * md
    circ_HH = [[None] * mh for _ in range(mh)]
    brk_HH = [[None] * mh for _ in range(mh)]
    d_HH = [[None] * mh for _ in range(mh)]
    half = f.of(1) / f.of(2)
    for j in range(mh):
        for k in range(mh):
            # [D0 x a, D1 x b] = D2 x (a o b) - G2 x (1/2)[a,b]
            co = decompose_vec(bracket(cols[3 * j + 0], cols[3 * k + 1]))
            circ_HH[j][k] = read(co, 0, 2, 3, mh)
            brk_HH[j][k] = [f.of(-2) * c for c in read(co, 3 * mh, 2, 5, ms)]
            # [D0 x a, D0 x b] = -(1/3) Z x [a,b] - 2 d_{a,b}
            co = decompose_vec(bracket(cols[3 * j + 0], cols[3 * k + 0]))
            d_HH[j][k] = [-half * co[off_d + r] for r in range(md)]
    brk_HS = [[None] * ms for _ in range(mh)]
    circ_HS = [[None] * ms for _ in range(mh)]
    for j in range(mh):
        for k in range(ms):
            # [D0 x a, G1 x x] = D2 x (1/2)[a,x] - G2 x (a o x)
            co = decompose_vec(bracket(cols[3 * j + 0], cols[3 * mh + 5 * k + 1]))
            brk_HS[j][k] = [f.of(2) * c for c in read(co, 0, 2, 3, mh)]
            circ_HS[j][k] = [-c for c in read(co, 3 * mh, 2, 5, ms)]
    circ_SS = [[None] * ms for _ in range(ms)]
    brk_SS = [[None] * ms for _ in range(ms)]
    d_SS = [[None] * ms for _ in range(ms)]
    for j in range(ms):
        for k in range(ms):
            # [G1 x x, G2 x y] = D0 x (x o y) - G0 x (1/2)[x,y]
            co = decompose_vec(bracket(cols[3 * mh + 5 * j + 1], cols[3 * mh + 5 * k + 2]))
            circ_SS[j][k] = read(co, 0, 0, 3, mh)
            brk_SS[j][k] = [f.of(-2) * c for c in read(co, 3 * mh, 0, 5, ms)]
            # [G1 x x, G1 x y] = -(stuff) x (1/2)[x,y] + 2 d_{x,y}
            co = decompose_vec(bracket(cols[3 * mh + 5 * j + 1], cols[3 * mh + 5 * k + 1]))
            d_SS[j][k] = [half * co[off_d + r] for r in range(md)]
    act_dH = [[None] * mh for _ in range(md)]
    act_dS = [[None] * ms for _ in range(md)]
    brk_dd = [[None] * md for _ in range(md)]
    for r in range(md):
        for j in range(mh):
            co = decompose_vec(bracket(cols[off_d + r], cols[3 * j + 0]))
            act_dH[r][j] = read(co, 0, 0, 3, mh)
        for j in range(ms):
            co = decompose_vec(bracket(cols[off_d + r], cols[3 * mh + 5 * j + 0]))
            act_dS[r][j] = read(co, 3 * mh, 0, 5, ms)
        for s in range(md):
            co = decompose_vec(bracket(cols[off_d + r], cols[off_d + s]))
            brk_dd[r][s] = [co[off_d + t] for t in range(md)]

    data = B1Data(field=f, hdim=mh, sdim=ms, ddim=md, unit_h=unit_h,
                  circ_HH=circ_HH, brk_HH=brk_HH, brk_HS=brk_HS,
                  circ_HS=circ_HS, circ_SS=circ_SS, brk_SS=brk_SS,
                  d_HH=d_HH, d_SS=d_SS, act_dH=act_dH, act_dS=act_dS,
                  brk_dd=brk_dd)
    return B1Extraction(g, report, data, psi, hvecs, svecs)


def round_trip_matches(g, extraction):
    """assemble_b1 of the extracted data must equal g transported through
    Psi, structure constant by structure constant."""
    rebuilt = assemble_b1(extraction.data, name=g.name + "/b1")
    transported = g.transported(extraction.psi, name=g.name + "/psi")
    return rebuilt.sc == transported.sc


def synthesize_s4(g, report, extraction=None):
    """The S4 action by conjugation on the so3 and h tensor factors,
    trivial on the centralizer, transported to g through Psi."""
    if extraction is None:
        extraction = extract_b1(g, report)
    f = g.field
    act = s4_on_w(f)
    Ds = so3_basis(f)
    Hs = h_basis(f)
    so3_span = Subspace.from_vectors([flatten_matrix(M) for M in Ds], 9, f)
    h_span = Subspace.from_vectors([flatten_matrix(M) for M in Hs], 9, f)
    mh, ms, md = extraction.data.hdim, extraction.data.sdim, extraction.data.ddim
    n = g.n
    gens = {}
    for name, P in act.gens.items():
        Pi = P.inverse()
        rho3 = Matrix.from_columns(
            [so3_span.coords(flatten_matrix(P @ D @ Pi)) for D in Ds], f)
        rho5 = Matrix.from_columns(
            [h_span.coords(flatten_matrix(P @ X @ Pi)) for X in Hs], f)
        block = Matrix.zeros(n, n, f)
        for j in range(mh):
            for i1 in range(3):
                for i2 in range(3):
                    block[3 * j + i1, 3 * j + i2] = rho3[i1, i2]
        off = 3 * mh
        for j in range(ms):
            for x1 in range(5):
                for x2 in range(5):
                    block[off + 5 * j + x1, off + 5 * j + x2] = rho5[x1, x2]
        off_d = off + 5 * ms
        for r in range(md):
            block[off_d + r, off_d + r] = f.one
        gens[name] = extraction.psi @ block @ extraction.psi_inv
    return GroupAction(g, gens["tau1"], gens["tau2"], gens["phi"], gens["tau"],
                       name="S4 on %s (synthesized)" % g.name)


# ---------------------------------------------------------------------------
# classical example families


def lie_from_matrices(mats, labels=None, field=QQ, name="matrix-lie"):
    """SuperAlgebra from a list of independent matrices closed under the
    commutator; coordinates solved through the span."""
    if not mats:
        raise ValueError("empty basis")
    nn = mats[0].nrows
    span = Subspace(nn * nn, field)
    for M in mats:
        if not span.add(flatten_matrix(M)):
            raise ValueError("matrices are not linearly independent")
    m = len(mats)
    sc = {}
    for a in range(m):
        for b in range(m):
            coords = span.coords(flatten_matrix(commutator(mats[a], mats[b])))
            if coords is None:
                raise ValueError("not closed under commutator")
            row = {k: c for k, c in enumerate(coords) if c}
            if row:
                sc[(a, b)] = row
    labels = labels or ["m%d" % i for i in range(m)]
    return SuperAlgebra(labels, sc, field=field, name=name, is_lie_claimed=True)


def _embed(M3, N, field, row0=0, col0=0):
    out = Matrix.zeros(N, N, field)
    for i in range(M3.nrows):
        for j in range(M3.ncols):
            out[row0 + i, col0 + j] = M3[i, j]
    return out


def _triple_coords(alg, span_mats, mats):
    """Coordinates of the embedded D-triple in the chosen matrix basis."""
    span = Subspace(span_mats[0].nrows ** 2, alg.field)
    for M in span_mats:
        span.add(flatten_matrix(M))
    return [span.coords(flatten_matrix(M)) for M in mats]


def classical_examples(kind, dimU, field=QQ):
    """(g, triple) for the three classical families with W in the corner.

    orthogonal: so(W + U) for a symmetric form (identity);
    special: sl(W + U);
    symplectic: sp(W + W* + U), dimU even.
    """
    f = field
    Ds = so3_basis(f)
    if kind == "orthogonal":
        N = 3 + dimU
        mats = []
        labels = []
        for i in range(N):
            for j in range(i + 1, N):
                M = Matrix.zeros(N, N, f)
                M[i, j] = f.one
                M[j, i] = -f.one
                mats.append(M)
                labels.append("F%d%d" % (i, j))
        g = lie_from_matrices(mats, labels, f, name="so%d" % N)
        triple_mats = [_embed(D, N, f) for D in Ds]
    elif kind == "special":
        N = 3 + dimU
        mats = []
        labels = []
        for i in range(N):
            for j in range(N):
                if i != j:
                    M = Matrix.zeros(N, N, f)
                    M[i, j] = f.one
                    mats.append(M)
                    labels.append("E%d%d" % (i, j))
        for i in range(N - 1):
            M = Matrix.zeros(N, N, f)
            M[i, i] = f.one
            M[i + 1, i + 1] = -f.one
            mats.append(M)
            labels.append("H%d" % i)
        g = lie_from_matrices(mats, labels, f, name="sl%d" % N)
        triple_mats = [_embed(D, N, f) for D in Ds]
    elif kind == "symplectic":
        if dimU % 2:
            raise ValueError("symplectic requires even dimU")
        N = 6 + dimU
        J = Matrix.zeros(N, N, f)
        for i in range(3):
            J[i, 3 + i] = -f.one
            J[3 + i, i] = f.one
        for u in range(dimU // 2):
            J[6 + 2 * u, 6 + 2 * u + 1] = f.one
            J[6 + 2 * u + 1, 6 + 2 * u] = -f.one
        # solve M^T J + J M = 0:
        # (M^T J + J M)[i][j] = sum_k M[k,i] J[k,j] + J[i,k] M[k,j]
        rows = []
        for i in range(N):
            for j in range(N):
                row = [f.zero] * (N * N)
                for k in range(N):
                    row[k * N + i] = row[k * N + i] + J[k, j]
                    row[k * N + j] = row[k * N + j] + J[i, k]
                rows.append(row)
        ker = Matrix(rows, f).kernel_basis()
        mats = []
        for v in ker:
            M = Matrix.zeros(N, N, f)
            for i in range(N):
                for j in range(N):
                    M[i, j] = v[i * N + j]
            mats.append(M)
        g = lie_from_matrices(mats, None, f, name="sp%d" % N)
        triple_mats = []
        for D in Ds:
            M = Matrix.zeros(N, N, f)
            for i in range(3):
                for j in range(3):
                    M[i, j] = D[i, j]
                    M[3 + i, 3 + j] = -D[j, i]
            triple_mats.append(M)
    else:
        raise ValueError("unknown kind %r" % kind)
    basis_mats = mats
    triple = _triple_coords(g, basis_mats, triple_mats)
    if any(t is None for t in triple):
        raise ValueError("triple does not lie in the chosen basis span")
    return g, triple


def glw(field=QQ):
    """gl(W) in the distinguished H/G/D basis, with the D-triple."""
    m = hgd_matrices(field)
    order = ["H0", "H1", "H2", "G0", "G1", "G2", "D0", "D1", "D2"]
    g = lie_from_matrices([m[k] for k in order], order, field, name="glW")
    triple = [basis_vector(9, 6 + i, field) for i in range(3)]
    return g, triple


def so_h_negative_control(field=QQ):
    """so(h, trace form) with the so3 acting through ad: as an so3-module
    this is V(6) + V(2), so the Casimir eigenvalue -12 occurs and
    decompose must report failure-to-span."""
    f = field
    Hs = h_basis(f)
    S = Matrix.zeros(5, 5, f)
    for i in range(5):
        for j in range(5):
            S[i, j] = (Hs[i] @ Hs[j]).trace()
    N = 5
    rows = []
    for i in range(N):
        for j in range(N):
            row = [f.zero] * (N * N)
            for k in range(N):
                row[k * N + i] = row[k * N + i] + S[k, j]
                row[k * N + j] = row[k * N + j] + S[i, k]
            rows.append(row)
    ker = Matrix(rows, f).kernel_basis()
    mats = []
    for v in ker:
        M = Matrix.zeros(N, N, f)
        for i in range(N):
            for j in range(N):
                M[i, j] = v[i * N + j]
        mats.append(M)
    g = lie_from_matrices(mats, None, f, name="so(h)")
    # the triple: ad(D_i) restricted to h
    Ds = so3_basis(f)
    h_span = Subspace.from_vectors([flatten_matrix(M) for M in Hs], 9, f)
    rho = []
    for D in Ds:
        cols = [h_span.coords(flatten_matrix(commutator(D, X))) for X in Hs]
        rho.append(Matrix.from_columns(cols, f))
    span = Subspace(N * N, f)
    for M in mats:
        span.add(flatten_matrix(M))
    triple = [span.coords(flatten_matrix(R)) for R in rho]
    return g, triple
