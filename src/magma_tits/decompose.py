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

Matrix Lie algebras (lie_from_matrices), the coefficient data read off a
decomposition and the reassembled bracket are exact sparse contractions
(algebra.commutator_table, int_fast.bilinear, COO outer products).
"""

from dataclasses import dataclass
from functools import cache

import numpy as np

from .exact import (
    QQ, Matrix, Subspace, vec_zero, vec_add, vec_scale, vec_eq, vec_is_zero,
    basis_vector, flatten_matrix, commutator,
)
from .algebra import (SuperAlgebra, EVEN, act_on_tensor, commutator_table, dense_entries,
                      nonzero_entries, outer_entries, sc_from_coo)
from .int_fast import bilinear, matvec, rows_coo, table_coo, to_field
from .s4 import GroupAction
from .tits import feed_pairs, inner_derivation_pairs

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
        return AB + BA - I3.scale(two3 * AB.trace())

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


@cache
def _so3_h(field):
    """The so3 and h bases (Ds, Hs), the coordinates of a 3x3 matrix in each
    (so3c, hc) and the actions ad(D_i) on both as coordinate matrices
    (R3, R5).  Built once per field and shared: callers only read them."""
    Ds, Hs = so3_basis(field), h_basis(field)
    so3_span = Subspace.from_vectors([flatten_matrix(M) for M in Ds], 9, field)
    h_span = Subspace.from_vectors([flatten_matrix(M) for M in Hs], 9, field)

    def so3c(M):
        return so3_span.coords(flatten_matrix(M))

    def hc(M):
        return h_span.coords(flatten_matrix(M))

    R3 = [Matrix.from_columns([so3c(commutator(D, B)) for B in Ds], field) for D in Ds]
    R5 = [Matrix.from_columns([hc(commutator(D, X)) for X in Hs], field) for D in Ds]
    return Ds, Hs, so3c, hc, R3, R5


def _so3_structure(field):
    """Structure tables of gl(W) pieces used by the assembly."""
    f = field
    Ds, Hs, so3c, hc, _R3, _R5 = _so3_h(f)
    I3 = Matrix.identity(3, f)
    two3 = f.of(2) / f.of(3)

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
    minus_half = -f.one / f.of(2)
    par_h, par_s, par_d = (np.array(p, dtype=bool)
                           for p in (data.h_parity, data.s_parity, data.d_parity))

    def block(so3_table, data_table, scale=None, depth=3):
        """Outer product of an so3 table (i1, i2[, m]) and a data table (j1, j2, t)."""
        return outer_entries(nonzero_entries(so3_table, depth),
                             nonzero_entries(data_table, 3), scale)

    # adjoint x adjoint and h x h: [A,B] x (a o b) - (1/2) sym(A,B) x [a,b] + tr(AB) d_{a,b}
    for idx, (comm, sym, tr), (circ, brk, dd) in (
            (aidx, (st["comm_DD"], st["sym_DD"], st["tr_DD"]),
             (data.circ_HH, data.brk_HH, data.d_HH)),
            (hidx, (st["comm_HH"], st["sym_HH"], st["tr_HH"]),
             (data.circ_SS, data.brk_SS, data.d_SS))):
        (i1, i2, m), (j1, j2, t), vals = block(comm, circ)
        sc_from_coo(idx(i1, j1), idx(i2, j2), aidx(m, t), vals, sc)
        (i1, i2, m), (j1, j2, t), vals = block(sym, brk, minus_half)
        sc_from_coo(idx(i1, j1), idx(i2, j2), hidx(m, t), vals, sc)
        (i1, i2), (j1, j2, t), vals = block(tr, dd, depth=2)
        sc_from_coo(idx(i1, j1), idx(i2, j2), off_d + t, vals, sc)
    # adjoint x h and its mirror: -(AX + XA) x (1/2)[a,x] + [A,X] x (a o x)
    for kind, ((i1, x2, m), (j1, j2, t), vals) in (
            (aidx, block(st["acirc_DH"], data.brk_HS, minus_half)),
            (hidx, block(st["comm_DH"], data.circ_HS))):
        odd = (par_h[j1] & par_s[j2]).tolist()
        sc_from_coo(aidx(i1, j1), hidx(x2, j2), kind(m, t), vals, sc)
        sc_from_coo(hidx(x2, j2), aidx(i1, j1), kind(m, t),
                    [c if o else -c for c, o in zip(vals, odd)], sc)
    # d acting on both parts (with the Koszul sign on the mirror), d x d
    for idx, width, act, par, size in ((aidx, 3, data.act_dH, par_h, mh),
                                       (hidx, 5, data.act_dS, par_s, ms)):
        acts = np.array(act, dtype=object).reshape(md, size, size)
        act_on_tensor(sc, acts, par_d, par, width, lambda r: off_d + r, idx)
    (r, s, t), vals = nonzero_entries(data.brk_dd, 3)
    sc_from_coo(off_d + r, off_d + s, off_d + t, vals, sc)

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
    pairs = inner_derivation_pairs(J, [alg.e(i) for i in range(nJ)])
    kept = feed_pairs(span, pairs, nJ, nJ)
    mats = [M for _j, _l, M in kept]
    dpar = [(alg.parity[j] + alg.parity[l]) % 2 for j, l, _M in kept]
    md = span.dim
    half = f.of(1) / f.of(2)
    circ_HH = [[list(alg.multiply(alg.e(i), alg.e(j))) for j in range(nJ)] for i in range(nJ)]
    d_HH = [[[f.zero] * md for _j in range(nJ)] for _i in range(nJ)]
    ids, ks, values, _out = span.coords_many(*pairs, check=False)
    for i, k, c in zip(ids.tolist(), ks.tolist(), values):
        d_HH[i // nJ][i % nJ][k] = half * c
    act_dH = [[list(M.column(j)) for j in range(nJ)] for M in mats]
    dd, _out = commutator_table(mats, span, dpar, check=False)
    brk_dd = [[[dd.get((r, s), {}).get(t, f.zero) for t in range(md)] for s in range(md)]
              for r in range(md)]
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

    _Ds, _Hs, _so3c, _hc, R3, R5 = _so3_h(f)
    ad_ops = [lambda v, M=ads[i]: M.apply(v) for i in range(3)]

    # adjoint copies start from D0 = (1,0,0), five-dim copies from
    # Z = 2 H0 - H1 - H2 = 2 (H0-H1) + (H1-H2)
    cols = [None] * (3 * mh + 5 * ms + md)
    zcoords = [f.zero, f.zero, f.zero, f.of(2), f.one]
    for R, start, vecs, width, offset in ((R3, basis_vector(3, 0, f), hvecs, 3, 0),
                                          (R5, zcoords, svecs, 5, 3 * mh)):
        for j, h in enumerate(vecs):
            pairs = _module_copy_map(R, start, ad_ops, h, width)
            A = Matrix.from_columns([p[0] for p in pairs], f).inverse()
            conc = [p[1] for p in pairs]
            for i in range(width):
                v = vec_zero(n, f)
                for c, w in zip(A.column(i), conc):
                    if c:
                        v = vec_add(v, vec_scale(c, w))
                cols[offset + width * j + i] = v
    off_d = 3 * mh + 5 * ms
    for r, d in enumerate(dvecs):
        cols[off_d + r] = list(d)
    psi = Matrix.from_columns(cols, f)
    psi_inv = psi.inverse()

    def read(co, offset, block, width, count, scale=None):
        """Coordinates in one (operator, multiplicity) slice, as lists."""
        co = co[..., offset + block:offset + width * count:width]
        return (co if scale is None else scale * co).tolist()

    # unit of H: d0 = D0 x 1
    unit_h = read(np.array(psi_inv.apply(triple[0]), dtype=object), 0, 0, 3, mh)

    table, Vt, Dt = table_coo(g.sc, f)
    inv, Vi, Di = rows_coo(psi_inv.rows, f)

    def brackets(A, B):
        """psi^{-1} [cols[a], cols[b]] for a in A, b in B: one bilinear
        contraction of g's table and one matvec, as a |A| x |B| x n array."""
        X, Vx, Dx = rows_coo([cols[a] for a in A], f)
        Y, Vy, Dy = rows_coo([cols[b] for b in B], f)
        (x, y, k), sums, _path = bilinear((table, Vt), (X, Vx), (Y, Vy), None)
        (xy, l), sums = matvec((inv, Vi), ((x * len(B) + y, k), sums))
        co = dense_entries((len(A) * len(B), n), (xy, l), to_field(sums, Dt * Dx * Dy * Di, f),
                           f.zero)
        return co.reshape(len(A), len(B), n)

    half = f.of(1) / f.of(2)
    D0, D1 = [3 * j for j in range(mh)], [3 * j + 1 for j in range(mh)]
    G0, G1, G2 = ([3 * mh + 5 * j + x for j in range(ms)] for x in (0, 1, 2))
    ds = [off_d + r for r in range(md)]
    # [D0 x a, D1 x b] = D2 x (a o b) - G2 x (1/2)[a,b]
    co = brackets(D0, D1)
    circ_HH, brk_HH = read(co, 0, 2, 3, mh), read(co, 3 * mh, 2, 5, ms, f.of(-2))
    # [D0 x a, D0 x b] = -(1/3) Z x [a,b] - 2 d_{a,b}
    d_HH = read(brackets(D0, D0), off_d, 0, 1, md, -half)
    # [D0 x a, G1 x x] = D2 x (1/2)[a,x] - G2 x (a o x)
    co = brackets(D0, G1)
    brk_HS, circ_HS = read(co, 0, 2, 3, mh, f.of(2)), read(co, 3 * mh, 2, 5, ms, f.of(-1))
    # [G1 x x, G2 x y] = D0 x (x o y) - G0 x (1/2)[x,y]
    co = brackets(G1, G2)
    circ_SS, brk_SS = read(co, 0, 0, 3, mh), read(co, 3 * mh, 0, 5, ms, f.of(-2))
    # [G1 x x, G1 x y] = -(stuff) x (1/2)[x,y] + 2 d_{x,y}
    d_SS = read(brackets(G1, G1), off_d, 0, 1, md, half)
    act_dH = read(brackets(ds, D0), 0, 0, 3, mh)
    act_dS = read(brackets(ds, G0), 3 * mh, 0, 5, ms)
    brk_dd = read(brackets(ds, ds), off_d, 0, 1, md)

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
    Ds, Hs, so3c, hc, _R3, _R5 = _so3_h(f)
    mh, ms, md = extraction.data.hdim, extraction.data.sdim, extraction.data.ddim
    n = g.n
    gens = {}
    for name, P in act.gens.items():
        Pi = P.inverse()
        rho3 = Matrix.from_columns([so3c(P @ D @ Pi) for D in Ds], f)
        rho5 = Matrix.from_columns([hc(P @ X @ Pi) for X in Hs], f)
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
    commutator; all commutators and their coordinates in the span come
    from one algebra.commutator_table contraction."""
    if not mats:
        raise ValueError("empty basis")
    nn = mats[0].nrows
    span = Subspace(nn * nn, field)
    for M in mats:
        if not span.add(flatten_matrix(M)):
            raise ValueError("matrices are not linearly independent")
    sc, outside = commutator_table(mats, span)
    if outside:
        raise ValueError("not closed under commutator: [m%d, m%d]" % outside[0])
    labels = labels or ["m%d" % i for i in range(len(mats))]
    return SuperAlgebra(labels, sc, field=field, name=name, is_lie_claimed=True)


def _embed(M3, N, field, row0=0, col0=0):
    out = Matrix.zeros(N, N, field)
    for i in range(M3.nrows):
        for j in range(M3.ncols):
            out[row0 + i, col0 + j] = M3[i, j]
    return out


def _form_algebra(S):
    """Basis matrices of {M : M^T S + S M = 0}, from the kernel of the
    linear system (M^T S + S M)[i][j] = sum_k M[k,i] S[k,j] + S[i,k] M[k,j]."""
    f, N = S.field, S.nrows
    rows = []
    for i in range(N):
        for j in range(N):
            row = [f.zero] * (N * N)
            for k in range(N):
                row[k * N + i] = row[k * N + i] + S[k, j]
                row[k * N + j] = row[k * N + j] + S[i, k]
            rows.append(row)
    return [Matrix([v[i * N:(i + 1) * N] for i in range(N)], f)
            for v in Matrix(rows, f).kernel_basis()]


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
        mats = _form_algebra(J)
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
    _Ds, Hs, _so3c, _hc, _R3, rho = _so3_h(f)
    S = Matrix.zeros(5, 5, f)
    for i in range(5):
        for j in range(5):
            S[i, j] = (Hs[i] @ Hs[j]).trace()
    mats = _form_algebra(S)
    g = lie_from_matrices(mats, None, f, name="so(h)")
    # the triple: ad(D_i) restricted to h
    return g, _triple_coords(g, mats, rho)
