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
(algebra.commutator_table, int_fast.bilinear, COO outer products).  So is
the decomposition: the ad(d_i) are one join of the table with the triple,
Omega + c is one fold of them joined with themselves on the middle index
plus a c diagonal, whose kernels, like those of ad(d0) inside the
components and the inverses of the module copies and of Psi, come from
the integer elimination of exact.py; the synthesized generators
Psi B Psi^{-1} are int_fast.matvec products.
gl(W) is one associative product table (gl_w), built once per field.  The
nine invariant maps are rows (alpha, beta, gamma) of
mu(A, B) = alpha AB + beta BA + gamma tr(AB) I, folded against it; their
equivariance is algebra.lowered_map_failures of the lowered ad(D_i) and
S4 conjugations; ad(D_i) on so3 and h and the trace form of h are read
off the same table.  The coefficient data (B1Data) stays in sparse tables
{(j, k): {t: c}}, the form of SuperAlgebra.sc, from extraction through
validate to assembly.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from types import MappingProxyType

import numpy as np

from .exact import (QQ, Matrix, Subspace, basis_vector, coo_rows, flatten_matrix, inverse_coo,
                    kernel_coo, kernel_of)
from .algebra import (SuperAlgebra, EVEN, LinearMap, commutator_table, left_mults,
                      lowered_map_failures, outer_block, sc_from_coo, tensor_action,
                      transpose_failures)
from .int_fast import (as_ints, bilinear, canonical, fold, join, lower, matrices_coo, matvec,
                       outer, read_only, rows_coo, table_coo, tile, to_field)
from .s4 import GEN_NAMES, GroupAction, conjugation_block
from .tits import inner_derivation_space


def hgd_matrices(field=QQ):
    """The nine distinguished 3x3 matrices, keyed H0..H2, G0..G2, D0..D2."""
    return {
        "H0": Matrix([[0, 0, 0], [0, 0, 0], [0, 0, 1]], field),
        "H1": Matrix([[1, 0, 0], [0, 0, 0], [0, 0, 0]], field),
        "H2": Matrix([[0, 0, 0], [0, 1, 0], [0, 0, 0]], field),
        "G0": Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 0]], field),
        "G1": Matrix([[0, 0, 0], [0, 0, 1], [0, 1, 0]], field),
        "G2": Matrix([[0, 0, 1], [0, 0, 0], [1, 0, 0]], field),
        "D0": Matrix([[0, -1, 0], [1, 0, 0], [0, 0, 0]], field),
        "D1": Matrix([[0, 0, 0], [0, 0, -1], [0, 1, 0]], field),
        "D2": Matrix([[0, 0, 1], [0, 0, 0], [-1, 0, 0]], field),
    }


def so3_basis(field=QQ):
    m = hgd_matrices(field)
    return [m["D0"], m["D1"], m["D2"]]


def h_basis(field=QQ):
    """Basis of h: G0, G1, G2, H0-H1, H1-H2."""
    m = hgd_matrices(field)
    return [m["G0"], m["G1"], m["G2"], Matrix([[-1, 0, 0], [0, 0, 0], [0, 0, 1]], field),
            Matrix([[1, 0, 0], [0, -1, 0], [0, 0, 0]], field)]


def s4_on_w(field=QQ):
    """The 3-dimensional representation on W = span{w1, w2, w0}:
    tau1 = diag(-1,-1,1), tau2 = diag(1,-1,-1), phi cycles w0->w1->w2->w0,
    tau: w0 -> -w0, w1 <-> -w2."""
    f = field
    tau1 = Matrix([[-1, 0, 0], [0, -1, 0], [0, 0, 1]], f)
    tau2 = Matrix([[1, 0, 0], [0, -1, 0], [0, 0, -1]], f)
    phi = Matrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]], f)
    tau = Matrix([[0, -1, 0], [-1, 0, 0], [0, 0, -1]], f)
    return GroupAction(None, tau1, tau2, phi, tau, name="S4 on W")


# ---------------------------------------------------------------------------
# gl(W) as one product table and the nine invariant maps

# the basis of gl(W) = so3 + h + z and the indices of each part
GL_W = ("D0", "D1", "D2", "G0", "G1", "G2", "H0-H1", "H1-H2", "I")
PARTS = {"so3": range(0, 3), "h": range(3, 8), "z": range(8, 9)}

# the nine so3- and S4-equivariant bilinear maps on (so3, h, z), rows
# (name, source, source, target, alpha, beta, gamma) of
# mu(A, B) = alpha AB + beta BA + gamma tr(AB) I: the commutator,
# anticommutator, traceless Jordan product, trace and zero
INVARIANT_MAPS = (
    ("so3xso3->so3", "so3", "so3", "so3", 1, -1, 0),
    ("so3xso3->h", "so3", "so3", "h", 1, 1, Fraction(-2, 3)),
    ("so3xso3->z", "so3", "so3", "z", 0, 0, 1),
    ("so3xh->so3", "so3", "h", "so3", 1, 1, 0),
    ("so3xh->h", "so3", "h", "h", 1, -1, 0),
    ("so3xh->z", "so3", "h", "z", 0, 0, 0),
    ("hxh->so3", "h", "h", "so3", 1, -1, 0),
    ("hxh->h", "h", "h", "h", 1, 1, Fraction(-2, 3)),
    ("hxh->z", "h", "h", "z", 0, 0, 1),
)


def _gl_w_basis(field):
    """The basis GL_W as 3x3 matrices and the span of their flattenings."""
    mats = so3_basis(field) + h_basis(field) + [Matrix.identity(3, field)]
    return mats, Subspace.from_vectors([flatten_matrix(M) for M in mats], 9, field)


@cache
def gl_w(field=QQ):
    """gl(W) = M3(k), associative, in the basis GL_W: the matrix-unit table
    E_ab E_bc = E_ac transported to the basis matrices, so that coo holds
    c^k_ij, the k-th coordinate of b_i b_j.  The invariant maps, their
    check, ad(D_i) and the trace form of h read this one table.  Built once
    per field and shared: callers only read it."""
    units = SuperAlgebra(["E%d%d" % divmod(e, 3) for e in range(9)],
                         {(3 * a + b, 3 * b + c): {3 * a + c: 1}
                          for a in range(3) for b in range(3) for c in range(3)}, field=field)
    U = Matrix.from_columns(_gl_w_basis(field)[1].basis, field)
    return units.transported(U, new_labels=list(GL_W), name="gl(W)")


def _map_algebras(gl):
    """The algebra A_mu on gl(W) of each map of INVARIANT_MAPS: mu(b_i, b_j)
    on its source pairs (i, j), zero on the others: the blocks of the
    table c^k_ij of gl times alpha, its transpose c^k_ji times beta and its
    I column (tr(b_i b_j) = 3 c^I_ij) times 3 gamma, the coefficients
    lowered as field values (residues over GF(p))."""
    f = gl.field
    (I, J, K), V, D = gl.coo
    Dc, coef = lower([f.of(c) * w for row in INVARIANT_MAPS
                      for c, w in zip(row[4:], (1, 1, 3))], f)
    out = []
    for r, (name, s1, s2, _dst, *_abc) in enumerate(INVARIANT_MAPS):
        fwd = np.flatnonzero(np.isin(I, PARTS[s1]) & np.isin(J, PARTS[s2]))
        bwd = np.flatnonzero(np.isin(J, PARTS[s1]) & np.isin(I, PARTS[s2]))
        tr = fwd[np.isin(K[fwd], PARTS["z"])]
        out.append(SuperAlgebra.from_blocks(GL_W, [
            (x[e], y[e], K[e], [V[e], c], D * Dc) for e, (x, y), c in
            zip((fwd, bwd, tr), ((I, J), (J, I), (I, J)), coef[3 * r:3 * r + 3].tolist())],
            field=f, name=name))
    return out


@cache
def _invariant_coo(field):
    """The nine maps of INVARIANT_MAPS on the bases of so3, h and z, as a
    read-only mapping from name to the lowered table ((i1, i2, m),
    integers, D) of the coordinates of the image (m = 0 for the z targets:
    the multiple of I), read off _map_algebras of gl_w inside the target.
    Built once per field and shared."""
    tables = {}
    for (name, s1, s2, dst, *_abc), A in zip(INVARIANT_MAPS, _map_algebras(gl_w(field))):
        (I, J, K), V, D = A.coo
        a, b, c = PARTS[s1], PARTS[s2], PARTS[dst]
        e = np.flatnonzero((K >= c.start) & (K < c.stop))
        tables[name] = (I[e] - a.start, J[e] - b.start, K[e] - c.start), V[e], D
    return MappingProxyType(tables)


@cache
def invariant_maps(field=QQ):
    """The maps of _invariant_coo as a read-only mapping from name to
    read-only object arrays [i1, i2, m] of field values ([i1, i2] for the
    z targets).  Built once per field and shared."""
    tables = {}
    for name, s1, s2, dst, *_abc in INVARIANT_MAPS:
        (i, j, k), V, D = _invariant_coo(field)[name]
        t = np.full((len(PARTS[s1]), len(PARTS[s2]), len(PARTS[dst])), field.zero, dtype=object)
        t[i, j, k] = to_field(V, D, field)
        tables[name] = t[..., 0] if dst == "z" else t
        read_only(tables[name])
    return MappingProxyType(tables)


def _ad_so3(gl):
    """ad(D_i), i = 0, 1, 2, on gl(W) as LinearMaps, c^k_ij - c^k_ji in
    row k and column j: the blocks of the table of gl and of its
    transpose."""
    (I, J, K), V, D = gl.coo
    return [LinearMap.from_blocks(gl, gl, [(K[I == d], J[I == d], [V[I == d]], D),
                                           (K[J == d], I[J == d], [V[J == d], -1], D)])
            for d in range(3)]


def _conjugations(field):
    """rho(g): X -> P X P^{-1} on gl(W) in the basis GL_W for the
    generators P of s4_on_w, as a GroupAction on gl(W) from one
    s4.conjugation_block."""
    mats, span = _gl_w_basis(field)
    (R, C), V, D = conjugation_block(span, matrices_coo(mats, field), s4_on_w(field), "gl(W)")
    m = span.dim
    return GroupAction.from_blocks(None, [(R // m, R % m, C % m, [V], D)], m, field,
                                   name="S4 on gl(W)")


def check_invariant_maps(field=QQ):
    """so3- and S4-equivariance of the nine maps on the table of gl_w,
    checked exactly: the image of each lies in its target, every ad(D_i)
    is a derivation of its algebra A_mu and every conjugation rho(g) an
    endomorphism of A_mu (algebra.lowered_map_failures of the lowered
    maps).  Returns the failing (name, reason) pairs in the order of
    INVARIANT_MAPS."""
    gl = gl_w(field)
    ads, rho = _ad_so3(gl), _conjugations(field).stacked
    failures = []
    for (name, _s1, _s2, dst, *_abc), A in zip(INVARIANT_MAPS, _map_algebras(gl)):
        if not np.isin(A.coo[0][2], PARTS[dst]).all():
            failures.append((name, "image outside target"))
        if any(lowered_map_failures(A, A, ad.coo, derivation=True, max_witnesses=1) for ad in ads):
            failures.append((name, "not so3-equivariant"))
        # the four conjugations at once, the generator carried by the copy
        bad = {i // A.n for i, _j in lowered_map_failures(A, A, rho, copies=4)}
        failures += [(name, "not S4-equivariant under " + g)
                     for k, g in enumerate(GEN_NAMES) if k in bad]
    return failures


# ---------------------------------------------------------------------------
# B1 coefficient data and assembly


@dataclass
class B1Data:
    """Multiplicity-space data: H with a distinguished unit, S, and the
    centralizer d acting on both, with the bilinear coefficient maps.

    Each map is a table {(j, k): {t: c}} like SuperAlgebra.sc, with no
    zero entries and no empty rows: c is the t-th coordinate of the value
    on the j-th and k-th basis vectors."""
    field: object
    hdim: int
    sdim: int
    ddim: int
    unit_h: list
    circ_HH: dict      # (j, k) -> H coords (symmetric, 1 o a = a)
    brk_HH: dict       # (j, k) -> S coords (skew, [1,a] = 0)
    brk_HS: dict       # (j, k) -> H coords ([1,x] = 0)
    circ_HS: dict      # (j, k) -> S coords (1 o x = x)
    circ_SS: dict      # (j, k) -> H coords (symmetric)
    brk_SS: dict       # (j, k) -> S coords (skew)
    d_HH: dict         # (j, k) -> d coords (skew)
    d_SS: dict         # (j, k) -> d coords (skew)
    act_dH: dict       # (r, j) -> H coords
    act_dS: dict       # (r, j) -> S coords
    brk_dd: dict       # (r, s) -> d coords
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
        f, one = self.field, self.unit_h

        def times_unit(table):
            """{(a, t): c} of sum_j one[j] table[(j, a)], without zeros."""
            out = {}
            for (j, a), row in table.items():
                for t, c in row.items():
                    out[a, t] = out.get((a, t), f.zero) + one[j] * c
            return {at: c for at, c in out.items() if c}

        if (times_unit(self.circ_HH) != {(a, a): f.one for a in range(self.hdim)}
                or times_unit(self.brk_HH) or times_unit(self.brk_HS)
                or times_unit(self.circ_HS) != {(x, x): f.one for x in range(self.sdim)}):
            return False

        def symmetric(table, par, skew):
            """table[(j, k)] == (-1)^{|j||k|} table[(k, j)], negated if skew."""
            return not transpose_failures(table_coo(table, f)[:2], par, -1 if skew else 1, f)

        return all(symmetric(table, par, skew) for par, tables in (
            (self.h_parity, (self.circ_HH, self.brk_HH, self.d_HH)),
            (self.s_parity, (self.circ_SS, self.brk_SS, self.d_SS)))
            for table, skew in zip(tables, (False, True, True)))


@cache
def _so3_h(field):
    """ad(D_i) on so3 and on h as coordinate matrices (R3, R5) and the
    conjugations by the S4 generators on gl(W), stacked (the `stacked` map
    of _conjugations), whose so3 and h blocks act on those parts.  Built
    once per field and shared: callers only read them."""
    parts = (PARTS["so3"], PARTS["h"])

    def blocks(ad):
        return tuple(Matrix([row[p.start:p.stop] for row in ad.matrix.rows[p.start:p.stop]], field)
                     for p in parts)

    R3, R5 = zip(*map(blocks, _ad_so3(gl_w(field))))
    return R3, R5, _conjugations(field).stacked


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
    st = _invariant_coo(f)
    mh, ms, md = data.hdim, data.sdim, data.ddim
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

    par = np.array(parity, dtype=bool)
    Dh, (minus_half,) = lower([-f.one / f.of(2)], f)
    minus_half = int(minus_half)

    def block(so3_table, data_table, place, factor=1, D=1):
        """Outer product of an so3 table (i1, i2, m) and a data table (j1, j2, t)."""
        return outer_block(so3_table, table_coo(data_table, f), place, factor, D)

    # adjoint x adjoint and h x h: [A,B] x (a o b) - (1/2) sym(A,B) x [a,b] + tr(AB) d_{a,b}
    blocks = []
    for idx, src, (circ, brk, dd) in ((aidx, "so3xso3", (data.circ_HH, data.brk_HH, data.d_HH)),
                                      (hidx, "hxh", (data.circ_SS, data.brk_SS, data.d_SS))):
        comm, sym, tr = (st[src + "->" + dst] for dst in ("so3", "h", "z"))
        blocks += [
            block(comm, circ, lambda i1, i2, m, j1, j2, t: (idx(i1, j1), idx(i2, j2), aidx(m, t))),
            block(sym, brk, lambda i1, i2, m, j1, j2, t: (idx(i1, j1), idx(i2, j2), hidx(m, t)),
                  minus_half, Dh),
            block(tr, dd, lambda i1, i2, _z, j1, j2, t: (idx(i1, j1), idx(i2, j2), off_d + t))]
    # adjoint x h and its mirror: -(AX + XA) x (1/2)[a,x] + [A,X] x (a o x)
    for kind, so3_table, table, scale in ((aidx, st["so3xh->so3"], data.brk_HS, (minus_half, Dh)),
                                          (hidx, st["so3xh->h"], data.circ_HS, (1, 1))):
        I, J, K, factors, D = block(so3_table, table, lambda i1, x2, m, j1, j2, t: (
            aidx(i1, j1), hidx(x2, j2), kind(m, t)), *scale)
        blocks += [(I, J, K, factors, D),
                   (J, I, K, [*factors, np.where(par[I] & par[J], 1, -1)], D)]
    # d acting on both parts (with the Koszul sign on the mirror), d x d
    for idx, width, act, par_v in ((aidx, 3, data.act_dH, data.h_parity),
                                   (hidx, 5, data.act_dS, data.s_parity)):
        blocks += tensor_action(table_coo(act, f), data.d_parity, par_v, width,
                                lambda r: off_d + r, idx)
    (r, s, t), V, D = table_coo(data.brk_dd, f)
    blocks.append((off_d + r, off_d + s, off_d + t, [V], D))

    return SuperAlgebra.from_blocks(labels, blocks, parity=parity, field=f, name=name)


def b1data_from_jordan(J):
    """Coefficient data of the classical one-space variant: H = J (any
    Jordan algebra), S = 0, d = span of the commutators [L_x, L_y], with
    d_{a,b} = (1/2)[L_a, L_b].  Assembled, this is the (so3 x J) + d bracket
    [A x x, B x y] = [A,B] x xy + (1/2) tr(AB) [L_x, L_y]."""
    f = J.field
    nJ = J.dim
    alg = J.algebra
    djj = inner_derivation_space(J, [alg.e(i) for i in range(nJ)])
    half = f.of(1) / f.of(2)
    ids, ks, V, D, _out = djj.span.coords_many(*djj.pairs, check=False)
    (s, k, j), Vm, Dm = djj.lowered
    (r, t, u), Vb, Db, _out = djj.bracket
    return B1Data(
        field=f, hdim=nJ, sdim=0, ddim=djj.dim, unit_h=list(J.unit),
        circ_HH={key: dict(row) for key, row in alg.sc.items()},
        brk_HH={}, brk_HS={}, circ_HS={}, circ_SS={}, brk_SS={},
        d_HH=sc_from_coo(ids // nJ, ids % nJ, ks, [half * c for c in to_field(V, D, f)]),
        d_SS={}, act_dH=sc_from_coo(s, j, k, to_field(Vm, Dm, f)), act_dS={},
        brk_dd=sc_from_coo(r, t, u, to_field(Vb, Db, f)), h_parity=list(alg.parity),
        d_parity=djj.parities,
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


def _casimir_kernels(g, triple):
    """Kernels of Omega + 2, Omega + 6 and Omega, for the Casimir
    Omega = ad(d0)^2 + ad(d1)^2 + ad(d2)^2 of the triple.

    D^2 (Omega + c) is one fold per c: the sparse ad(d_t) of algebra.left_mults joined
    with themselves on the middle index, plus a c D^2 diagonal.  Scaling a
    matrix keeps its kernel, so the kernels are those of Omega + c."""
    f, n = g.field, g.n
    p = f.p
    (tk, j), ad, D = left_mults(g, triple)
    a, b = join(tk - tk % n + j, tk)          # (t, k, m) against (t, m, l)
    square = (tk[a] % n) * n + j[b]
    diag = np.arange(n) * (n + 1)
    kernels = []
    for c in (2, 6, 0):
        keys, sums, _path = fold([(square, [ad[a], ad[b]]), (diag, [np.full(n, c * D * D)])], p)
        kernels.append(kernel_of(((keys // n, keys % n), sums, 1), n, n, f))
    return kernels


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
    if len(triple) != 3:
        raise ValueError("an so3 triple has three elements, not %d" % len(triple))
    # [d_t, d_{t+1}] = d_{t+2}: the ad(d_t) of left_mults on the triple, one
    # matvec, against D d_{t+2}
    (tk, j), ad, D = left_mults(g, triple)
    (xi, xa), xv, _Dx = rows_coo(triple, f)
    (x, tk), sums = matvec(((tk, j), ad), ((xi, xa), xv))
    e = np.flatnonzero(x == (tk // n + 1) % 3)
    keys, _sums, _path = fold([(tk[e], [sums[e]]), ((xi + 1) % 3 * n + xa, [xv, -D])])
    if len(keys):
        raise ValueError("triple does not satisfy [d_i, d_{i+1}] = d_{i+2}")
    ker2, ker6, ker0 = _casimir_kernels(g, triple)
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
    """The equivariant identification Psi: (so3 x H) + (h x S) + d -> g.

    Psi (columns in assemble_b1 order) and Psi^{-1} are kept lowered, as
    int_fast.rows_coo gives them (psi_coo, psi_inv_coo), for the matvecs
    of round_trip_matches and synthesize_s4; the Matrices psi and psi_inv
    are built from them on first read."""

    def __init__(self, g, report, data, hvecs, svecs, psi_coo, psi_inv_coo):
        self.g = g
        self.report = report
        self.data = data
        self.psi_coo = psi_coo
        self.psi_inv_coo = psi_inv_coo
        self.hvecs = hvecs
        self.svecs = svecs

    @cached_property
    def psi(self):
        return Matrix.from_coo(self.g.n, self.g.n, self.psi_coo, self.g.field)

    @cached_property
    def psi_inv(self):
        return Matrix.from_coo(self.g.n, self.g.n, self.psi_inv_coo, self.g.field)


def _kernel_within(g, op, component):
    """Basis of {v in span(component) : op(v) = 0}, op a sparse integer
    matrix ((R, C), V): the images of the component by one matvec, as the
    columns of a matrix whose kernel_coo gives the combinations, pushed
    through the component by a second matvec."""
    if not component:
        return []
    f = g.field
    (xi, xa), Vx, Dx = rows_coo(component, f)
    (ids, rows), sums = matvec(op, ((xi, xa), Vx), f.p)
    ((t, s), Vk, Dk), k = kernel_coo(coo_rows(((rows, ids), sums, 1), g.n, f.p),
                                     len(component), f.p)
    (t, a), sums = matvec(((xa, xi), Vx), ((t, s), Vk), f.p)
    return Matrix.from_coo(k, g.n, ((t, a), sums, Dx * Dk), f).rows


def _copy_columns(R_mats, start, ops, D, vecs, width, offset, f):
    """The columns of Psi for every module copy of one width, as one
    int_fast.canonical block: copy j, generated from the concrete vector
    vecs[j], is columns offset + width j + i, i < width.

    The abstract walk depends only on R_mats and start, so it runs once,
    breadth first: each R_t applied to each abstract vector in turn, every
    image that enlarges their span kept as a step (parent, t).  Each step
    pushes the concrete vectors of all copies through ad(d_t) (ops[t] over
    D) by one int_fast.matvec.  Column i of a copy is sum_s A^{-1}[s][i]
    conc_s, A the abstract vectors as columns: one inverse_coo of A, its
    row s scaled to the largest concrete denominator, copied for every
    copy and pushed through all concrete vectors by one matvec.
    ValueError when start does not generate the abstract module."""
    walk, steps = [start], []
    span = Subspace.from_vectors([start], width, f)
    for k, a in enumerate(walk):
        for t, R in enumerate(R_mats):
            if span.dim == width:
                break
            image = R.apply(a)
            if span.add(image):
                walk.append(image)
                steps.append((k, t))
    if span.dim != width:
        raise ValueError("module copy is not generated by the starting vector")
    if not vecs:
        return []
    p = f.p
    X, V, Dc = rows_coo(vecs, f)
    conc, dens = [(X, V)], [Dc]
    for k, t in steps:
        conc.append(matvec(ops[t], conc[k], p))
        dens.append(dens[k] * D)
    L = max(dens)           # dens[s] is Dc D^depth(s), so each divides L
    (s, x), Vs, Ds = rows_coo(walk, f)
    (r, c), Va, Da = inverse_coo(((x, s), Vs, Ds), width, p)
    Va = as_ints([v * (L // dens[s]) for v, s in zip(Va.tolist(), r.tolist())])
    cols = np.concatenate([ids * width + s for s, ((ids, _x), _v) in enumerate(conc)])
    rows = np.concatenate([x for (_ids, x), _v in conc])
    (col, row), sums = matvec(((rows, cols), np.concatenate([v for _X, v in conc])),
                              tile((c, r), (width, width), Va, len(vecs)), p)
    return [(row, offset + col, [sums], L * Da)]


def extract_b1(g, report):
    """Read the B1 coefficient data and the identification Psi from a
    successful decomposition."""
    if not report.ok:
        raise ValueError("decomposition did not span g")
    f = g.field
    n = g.n
    triple = report.triple
    p = f.p
    # ad(d_t) = L_t / D, entry (t * n + k, j) of left_mults
    (tk, j), ad, D = left_mults(g, triple)
    ops = [((tk[e] % n, j[e]), ad[e]) for e in (np.flatnonzero(tk // n == t) for t in range(3))]
    # multiplicity-space representatives: kernels of ad(d0) inside components
    hvecs = _kernel_within(g, ops[0], report.bases["adjoint"])
    svecs = _kernel_within(g, ops[0], report.bases["h"])
    dvecs = report.bases["trivial"]
    mh, ms, md = len(hvecs), len(svecs), len(dvecs)
    if (mh, ms, md) != (report.m_adjoint, report.m_h, report.m_trivial):
        raise ValueError("multiplicity-space extraction mismatch")

    R3, R5, _rho = _so3_h(f)
    # adjoint copies start from D0 = (1,0,0), five-dim copies from
    # Z = 2 H0 - H1 - H2 = 2 (H0-H1) + (H1-H2); Psi's columns are folded
    # from their blocks (rows, columns, integers, D)
    zcoords = [f.zero, f.zero, f.zero, f.of(2), f.one]
    blocks = (_copy_columns(R3, basis_vector(3, 0, f), ops, D, hvecs, 3, 0, f)
              + _copy_columns(R5, zcoords, ops, D, svecs, 5, 3 * mh, f))
    off_d = 3 * mh + 5 * ms
    (r, a), Vd, Dd = rows_coo(dvecs, f)
    psi_coo = canonical(blocks + [(a, off_d + r, [Vd], Dd)], (n, n), p)
    psi_inv_coo = inverse_coo(psi_coo, n, p)

    def read(co, offset, block, width, count, scale=None):
        """The table {(a, b): {t: c}} of one (operator, multiplicity) slice:
        the coordinates at offset + width t + block, times scale."""
        (a, b, l), vals = co
        t, r = np.divmod(l - offset - block, width)
        sel = np.flatnonzero((r == 0) & (t >= 0) & (t < count)).tolist()
        return sc_from_coo(a[sel], b[sel], t[sel],
                           [vals[e] if scale is None else scale * vals[e] for e in sel])

    table, Vt, Dt = g.coo
    (pr, pc), Vp, Dp = psi_coo
    inv, Vi, Di = psi_inv_coo
    # unit of H: d0 = D0 x 1, read off Psi^{-1} d0
    X, V0, Du = rows_coo([triple[0]], f)
    (x, l), sums = matvec((inv, Vi), (X, V0), p)
    unit_h = Matrix.from_coo(1, n, ((x, l), sums, Di * Du), f).rows[0][0:3 * mh:3]

    def columns(A):
        """The columns A of psi as the vectors 0, 1, ... of a batch, read
        off psi_coo."""
        number = np.full(n, -1, dtype=np.int64)
        number[A] = np.arange(len(A))
        sel = np.flatnonzero(number[pc] >= 0)
        return (number[pc[sel]], pr[sel]), Vp[sel]

    def brackets(A, B):
        """psi^{-1} [cols[a], cols[b]] for a in A, b in B: one bilinear
        contraction of g's table and one matvec, as the COO (a, b, l) of
        the nonzero coordinates and their values."""
        (x, y, k), sums, _path = bilinear((table, Vt), columns(A), columns(B), None)
        (xy, l), sums = matvec((inv, Vi), ((x * len(B) + y, k), sums), p)
        return (xy // len(B), xy % len(B), l), to_field(sums, Dt * Dp * Dp * Di, f)

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
    return B1Extraction(g, report, data, hvecs, svecs, psi_coo, psi_inv_coo)


def round_trip_matches(g, extraction):
    """assemble_b1 of the extracted data must equal g transported through
    Psi (with the extraction's lowered Psi and Psi^{-1}), structure constant
    by structure constant: equal tables have equal canonical COO."""
    rebuilt = assemble_b1(extraction.data, name=g.name + "/b1")
    transported = g.transported_lowered(extraction.psi_coo, extraction.psi_inv_coo,
                                        name=g.name + "/psi")
    (a, Va, Da), (b, Vb, Db) = rebuilt.coo, transported.coo
    return Da == Db and all(np.array_equal(x, y) for x, y in zip((*a, Va), (*b, Vb)))


def synthesize_s4(g, report, extraction=None):
    """The S4 action by conjugation on the so3 and h tensor factors,
    trivial on the centralizer, transported to g through Psi.

    The conjugations rho on so3 and h are blocks of the stacked ones on
    gl(W) (_so3_h); the generators Psi B Psi^{-1}, B block diagonal with
    copies of rho, are stacked on four copies of g: one int_fast.canonical of the
    four B, then two matvecs pushing the columns of four copies of
    Psi^{-1} through them and then through four copies of Psi."""
    if extraction is None:
        extraction = extract_b1(g, report)
    f = g.field
    p = f.p
    _R3, _R5, rho = _so3_h(f)
    mh, ms, md = extraction.data.hdim, extraction.data.sdim, extraction.data.ddim
    n = g.n
    (pr, pc), Vpsi, Dpsi = extraction.psi_coo
    (qr, qc), Vq, Dq = extraction.psi_inv_coo
    off, off_d = 3 * mh, 3 * mh + 5 * ms
    d = off_d + np.arange(md)
    # identity on the centralizer; copies of the so3 and h blocks of rho
    (dr, dc), ones = tile((d, d), (n, n), np.ones(md, dtype=np.int64), 4)
    blocks = [(dr, dc, [ones], 1)]
    (R, C), V, D = rho
    k, r, c = R // len(GL_W), R % len(GL_W), C % len(GL_W)
    for part, width, start, count in ((PARTS["so3"], 3, 0, mh), (PARTS["h"], 5, off, ms)):
        e = np.flatnonzero(np.isin(r, part) & np.isin(c, part))
        x, j = outer(len(e), count)
        e, at = e[x], start + width * j - part.start
        blocks.append((k[e] * n + at + r[e], k[e] * n + at + c[e], [V[e]], D))
    B, Vb, Db = canonical(blocks, (4 * n, 4 * n), p)
    Q = tile((qc, qr), (n, n), Vq, 4)
    (cols, rows), sums = matvec(tile((pr, pc), (n, n), Vpsi, 4), matvec((B, Vb), Q, p), p)
    return GroupAction.from_blocks(g, [(rows // n, rows % n, cols % n, [sums], Dpsi * Db * Dq)],
                                   n, f, name="S4 on %s (synthesized)" % g.name)


# ---------------------------------------------------------------------------
# classical example families


def lie_from_matrices(mats, labels=None, field=QQ, name="matrix-lie"):
    """SuperAlgebra from a list of independent matrices closed under the
    commutator; all commutators and their coordinates in the span come
    from one algebra.commutator_table contraction."""
    if not mats:
        raise ValueError("empty basis")
    nn = mats[0].nrows
    span, lowered = Subspace(nn * nn, field), matrices_coo(mats, field)
    (S, R, C), V, D = lowered
    if len(span.add_many(S, R * nn + C, V, D)) != len(mats):
        raise ValueError("matrices are not linearly independent")
    cols, V, D, outside = commutator_table(lowered, len(mats), nn, span)
    if outside:
        raise ValueError("not closed under commutator: [m%d, m%d]" % outside[0])
    return SuperAlgebra.from_coo(labels or ["m%d" % i for i in range(len(mats))], cols, V, D,
                                 field=field, name=name)


def _matrix(N, entries, field):
    """The N x N Matrix with c at (i, j) for each (i, j, c) in entries."""
    M = Matrix.zeros(N, N, field)
    for i, j, c in entries:
        M[i, j] = c
    return M


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
    span = Subspace.from_vectors([flatten_matrix(M) for M in span_mats],
                                 span_mats[0].nrows ** 2, alg.field)
    return [span.coords(flatten_matrix(M)) for M in mats]


def classical_examples(kind, dimU, field=QQ):
    """(g, triple) for the three classical families with W in the corner.

    orthogonal: so(W + U) for a symmetric form (identity);
    special: sl(W + U);
    symplectic: sp(W + W* + U), dimU even.
    """
    f = field
    N, corners = 3 + dimU, (0,)
    if kind == "orthogonal":
        pairs = [(i, j) for i in range(N) for j in range(i + 1, N)]
        mats = [_matrix(N, [(i, j, 1), (j, i, -1)], f) for i, j in pairs]
        g = lie_from_matrices(mats, ["F%d%d" % ij for ij in pairs], f, name="so%d" % N)
    elif kind == "special":
        pairs = [(i, j) for i in range(N) for j in range(N) if i != j]
        mats = [_matrix(N, [(i, j, 1)], f) for i, j in pairs]
        mats += [_matrix(N, [(i, i, 1), (i + 1, i + 1, -1)], f) for i in range(N - 1)]
        labels = ["E%d%d" % ij for ij in pairs] + ["H%d" % i for i in range(N - 1)]
        g = lie_from_matrices(mats, labels, f, name="sl%d" % N)
    elif kind == "symplectic":
        if dimU % 2:
            raise ValueError("symplectic requires even dimU")
        N, corners = 6 + dimU, (0, 3)
        form = [e for i in range(3) for e in ((i, 3 + i, -1), (3 + i, i, 1))]
        form += [e for u in range(6, N, 2) for e in ((u, u + 1, 1), (u + 1, u, -1))]
        mats = _form_algebra(_matrix(N, form, f))
        g = lie_from_matrices(mats, None, f, name="sp%d" % N)
    else:
        raise ValueError("unknown kind %r" % kind)
    # D on W, and in sp on W* too, where -D^T = D as D is skew
    triple = _triple_coords(g, mats, [
        _matrix(N, [(c + i, c + j, D[i, j]) for c in corners for i in range(3) for j in range(3)],
                f) for D in so3_basis(f)])
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
    decompose must report failure-to-span.  The trace form
    tr(XY) = 3 c^I_XY is the map hxh->z and the triple is ad(D_i) on h,
    both read off gl_w."""
    f = field
    _R3, rho, _conj = _so3_h(f)
    mats = _form_algebra(Matrix(invariant_maps(f)["hxh->z"].tolist(), f))
    g = lie_from_matrices(mats, None, f, name="so(h)")
    # the triple: ad(D_i) restricted to h
    return g, _triple_coords(g, mats, rho)
