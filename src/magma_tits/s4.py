"""S4 actions by automorphisms, Klein-four gradings, coordinate algebras.

An action is stored as matrices for the four generators

    tau1 = (12)(34),  tau2 = (23)(14),  phi = (123),  tau = (12),

subject to tau1 tau2 = tau2 tau1, phi tau1 = tau2 phi,
phi tau2 = tau1 tau2 phi, tau1 tau = tau tau1, tau2 tau = tau tau2 tau1,
tau phi = phi^2 tau, tau1^2 = tau2^2 = tau^2 = 1, phi^3 = 1.

The commuting involutions tau1, tau2 grade the target over Z2 x Z2; the
(1,0) component {X : tau1 X = X, tau2 X = -X} carries the coordinate
algebra with X.Y = -tau([phi(X), phi^2(Y)]) and involution -tau.

Everything runs on the generators lowered once to COO integers
(int_fast.rows_coo).  A word is a chain of int_fast.matvec products, the
empty word the identity; a relation lhs = rhs is one fold of
lhs D_rhs - rhs D_lhs, which fails iff a key survives; element() builds
its Matrix from the same product.  The Klein components are kernels of
rows folded from the generators' entries and shifted diagonals.  The
coordinate algebra and the conjugation blocks of the actions on T(C, J)
are single sparse exact contractions (int_fast.bilinear and matvec) with
batched, exactly checked coordinates.
"""

import numpy as np

from .exact import Matrix, Subspace
from .algebra import SuperAlgebra, LinearMap, is_automorphism
from .int_fast import bilinear, fold, join, matrices_coo, matvec, rows_coo, to_field
from .structurable import AlgebraWithInvolution

GEN_NAMES = ("tau1", "tau2", "phi", "tau")

# defining relations as word identities (left side, right side)
RELATIONS = [
    (("tau1", "tau2"), ("tau2", "tau1")),
    (("phi", "tau1"), ("tau2", "phi")),
    (("phi", "tau2"), ("tau1", "tau2", "phi")),
    (("tau1", "tau"), ("tau", "tau1")),
    (("tau2", "tau"), ("tau", "tau2", "tau1")),
    (("tau", "phi"), ("phi", "phi", "tau")),
    (("tau1", "tau1"), ()),
    (("tau2", "tau2"), ()),
    (("tau", "tau"), ()),
    (("phi", "phi", "phi"), ()),
]

# how each generator permutes the Klein components (a, b)
COMPONENT_PERMUTATION = {
    "tau1": lambda a, b: (a, b),
    "tau2": lambda a, b: (a, b),
    "phi": lambda a, b: (b, (a + b) % 2),
    "tau": lambda a, b: ((a + b) % 2, b),
}


# the relations a Klein grading needs: tau1 tau2 = tau2 tau1, tau1^2 = tau2^2 = 1
KLEIN_RELATIONS = [RELATIONS[0], RELATIONS[6], RELATIONS[7]]


class GroupAction:
    """Matrices for the four S4 generators acting on a target space; they
    are lowered once, on first use (`lowered`), so treat them as fixed."""

    def __init__(self, target, tau1, tau2, phi, tau, name="S4 action"):
        self.target = target
        self.gens = {"tau1": tau1, "tau2": tau2, "phi": phi, "tau": tau}
        self.name = name
        n = tau1.nrows
        for g in self.gens.values():
            if g.nrows != n or g.ncols != n:
                raise ValueError("generator matrices must be square of equal size")
        if target is not None and target.n != n:
            raise ValueError("generators do not match the target dimension")
        self.dim = n
        self.field = tau1.field
        self._lowered = {}

    def __getitem__(self, name):
        return self.gens[name]

    def lowered(self, name):
        """Generator `name` as int_fast.rows_coo integers ((R, C), V, D)."""
        if name not in self._lowered:
            self._lowered[name] = rows_coo(self.gens[name].rows, self.field)
        return self._lowered[name]

    def _product(self, word):
        """The matrix of a word as ((columns, rows), integers) over the
        denominator D: the columns of the identity (the empty word) pushed
        through the letters from right to left, one matvec each."""
        diag = np.arange(self.dim)
        X, D = ((diag, diag), np.ones(self.dim, dtype=np.int64)), 1
        for w in reversed(word):
            M, V, Dw = self.lowered(w)
            X = matvec((M, V), X, self.field.p)
            D *= Dw
        return X, D

    def element(self, word):
        """Matrix of a word in the generators, e.g. ("phi", "tau1")."""
        if isinstance(word, str):
            word = tuple(w for w in word.replace("*", " ").split() if w)
        ((cols, rows), vals), D = self._product(word)
        return Matrix.from_entries(self.dim, self.dim, rows, cols,
                                   to_field(vals, D, self.field), self.field)

    def word_failures(self, relations):
        """The (lhs, rhs) word pairs whose matrices differ: one fold of
        lhs D_rhs - rhs D_lhs per pair, which fails iff a key survives."""
        n = self.dim
        out = []
        for lhs, rhs in relations:
            ((lc, lr), lv), Dl = self._product(lhs)
            ((rc, rr), rv), Dr = self._product(rhs)
            keys, _sums, _path = fold([(lr * n + lc, [lv, Dr]), (rr * n + rc, [rv, -Dl])],
                                      self.field.p)
            if len(keys):
                out.append((lhs, rhs))
        return out

    def relation_failures(self):
        return self.word_failures(RELATIONS)

    def automorphism_failures(self):
        if self.target is None:
            return []
        out = []
        for name, M in self.gens.items():
            if not is_automorphism(self.target, LinearMap(self.target, self.target, M)):
                out.append(name)
        return out

    def verify(self):
        """Raise unless all defining relations and automorphism checks hold."""
        rel = self.relation_failures()
        if rel:
            raise ValueError("%s: defining relations fail: %r" % (self.name, rel))
        aut = self.automorphism_failures()
        if aut:
            raise ValueError("%s: generators are not automorphisms: %r" % (self.name, aut))
        return True

    def __repr__(self):
        return "GroupAction(%s, dim %d)" % (self.name, self.dim)


class KleinGrading:
    """Simultaneous tau1/tau2 eigenspace decomposition over Z2 x Z2.

    Component (a, b) is the subspace with tau2-eigenvalue (-1)^a and
    tau1-eigenvalue (-1)^b, matching C_(0,0) = ke1 + ke2,
    C_(1,0) = ku0 + kv0, C_(0,1) = ku1 + kv1, C_(1,1) = ku2 + kv2 on the
    split Cayley algebra.
    """

    KEYS = ((0, 0), (1, 0), (0, 1), (1, 1))

    def __init__(self, action, components):
        self.action = action
        self.components = components

    def dims(self):
        return {k: len(v) for k, v in self.components.items()}

    def component_subspace(self, key):
        S = Subspace(self.action.dim, self.action.field)
        for v in self.components[key]:
            S.add(v)
        return S

    def generator_permutes_components(self):
        """Check every generator maps each component into the predicted one."""
        subs = {k: self.component_subspace(k) for k in self.KEYS}
        for name, M in self.action.gens.items():
            perm = COMPONENT_PERMUTATION[name]
            for key in self.KEYS:
                tgt = subs[perm(*key)]
                for v in self.components[key]:
                    if not tgt.contains(M.apply(v)):
                        return False
        return True


def klein_grading(action):
    """Decompose the target into the four simultaneous tau1/tau2 eigenspaces.

    Component (a, b) is the kernel of the stacked rows of D1 (tau1 - s1 I)
    and D2 (tau2 - s2 I), s1 = (-1)^b, s2 = (-1)^a, Di the denominators of
    the lowered generators (scaling a row keeps the kernel and the reduced
    echelon form): one fold of the generators' entries and the shifted
    diagonals per component."""
    if action.word_failures(KLEIN_RELATIONS):
        raise ValueError("tau1, tau2 are not commuting involutions (not an action)")
    n, f = action.dim, action.field
    (R1, C1), V1, D1 = action.lowered("tau1")
    (R2, C2), V2, D2 = action.lowered("tau2")
    diag = np.arange(n) * (n + 1)
    components = {}
    total = 0
    for a in (0, 1):
        for b in (0, 1):
            s1, s2 = (-1) ** b, (-1) ** a
            keys, sums, _path = fold([(R1 * n + C1, [V1]), (diag, [np.full(n, -s1 * D1)]),
                                      (n * n + R2 * n + C2, [V2]),
                                      (n * n + diag, [np.full(n, -s2 * D2)])], action.field.p)
            basis = Matrix.from_entries(2 * n, n, keys // n, keys % n, to_field(sums, 1, f),
                                        f).kernel_basis()
            components[(a, b)] = basis
            total += len(basis)
    if total != n:
        raise ValueError("tau1, tau2 are not simultaneously diagonalizable over {+1,-1}")
    return KleinGrading(action, components)


class CoordinateAlgebra:
    """The (1,0) component of g with X.Y = -tau([phi X, phi^2 Y]), Xbar = -tau X."""

    def __init__(self, ambient, action, awi, embedding, span, unit):
        self.ambient = ambient
        self.action = action
        self.awi = awi                    # AlgebraWithInvolution on the component
        self.embedding = embedding        # dim_g x dim_ca matrix
        self.span = span                  # Subspace with the chosen basis
        self.unit = unit                  # coordinates in the component basis, or None

    @property
    def dim(self):
        return self.span.dim

    @property
    def is_unital(self):
        return self.unit is not None

    def product_ambient(self, X, Y):
        """-tau([phi(X), phi^2(Y)]) for ambient coordinate vectors."""
        g, act = self.ambient, self.action
        phi, tau = act["phi"], act["tau"]
        br = g.multiply(phi.apply(X), phi.apply(phi.apply(Y)))
        return [-x for x in tau.apply(br)]

    def ambient_vector(self, coords):
        return self.embedding.apply(coords)


def coordinate_algebra(g, action, basis=None, name=None):
    """Coordinate algebra of g under an S4 action.

    basis: optional list of ambient vectors to use as the preferred basis
    of the (1,0) component (each is verified to lie there).  Without it the
    component basis comes from klein_grading, which is fine for moderate
    dimensions; large constructions should pass their distinguished basis.

    The products X.Y = -tau([phi X, phi^2 Y]) of all basis pairs are one
    sparse exact contraction: phi E and phi^2 E by int_fast.matvec, the
    table of g against both by int_fast.bilinear, then -tau by matvec.
    Their coordinates, and sigma = -tau on the basis, come from
    Subspace.coords_many with the exact reconstruction check.
    """
    f = g.field
    p = f.p
    n = g.n
    if basis is None:
        basis = klein_grading(action).components[(1, 0)]
    (xi, xa), xv, DE = rows_coo(basis, f)
    E = ((xi, xa), xv)
    for gen, sign in (("tau1", 1), ("tau2", -1)):
        # tau1 X = X and tau2 X = -X, exactly: sum_j M_ij X_j - sign D_M X_i = 0
        (R, C), V, D = action.lowered(gen)
        a, b = join(C, xa)
        keys, _sums, _path = fold([(xi[b] * n + R[a], [V[a], xv[b]]),
                                   (xi * n + xa, [xv, -sign * D])], p)
        if len(keys):
            raise ValueError("proposed basis vector is not in the (1,0) component")
    span = Subspace(n, f)
    for v in basis:
        if not span.add(v):
            raise ValueError("proposed basis is linearly dependent")
    m = span.dim
    embedding = Matrix.from_columns(span.basis, f) if m else Matrix.zeros(n, 0, f)
    parity = [g.parity_of_vector(v) for v in span.basis]
    if any(par is None for par in parity):
        raise ValueError("component basis vectors must be parity homogeneous")

    phi_cols, phi_vals, Dphi = action.lowered("phi")
    phi = (phi_cols, phi_vals)
    tau_cols, tau_vals, Dtau = action.lowered("tau")
    neg_tau = (tau_cols, -tau_vals)
    A = matvec(phi, E, p)
    B = matvec(phi, A, p)
    cols, vals, Dg = g.coo
    (x, y, k), sums, _path = bilinear((cols, vals), A, B, p)
    (xy, l), sums = matvec(neg_tau, ((x * m + y, k), sums), p)
    ids, ks, V, D, outside = span.coords_many(xy, l, sums, Dtau * Dg * Dphi ** 3 * DE * DE)
    (x, l), sums = matvec(neg_tau, E, p)
    sids, sks, sV, sD, soutside = span.coords_many(x, l, sums, Dtau * DE)
    if len(outside) or len(soutside):
        raise ValueError("vector is not in the (1,0) component")
    alg = SuperAlgebra.from_coo(["c%d" % i for i in range(m)], (ids // m, ids % m, ks), V, D,
                                parity=parity, field=f, name=name or ("coord(%s)" % g.name))
    sigma = Matrix.from_entries(m, m, sks, sids, to_field(sV, sD, f), f)
    awi = AlgebraWithInvolution(alg, sigma)
    unit = _find_unit(alg)
    return CoordinateAlgebra(g, action, awi, embedding, span, unit)


def _find_unit(alg):
    """Solve u*x = x = x*u on the basis; None if the algebra is not unital.

    One equation sum_i u_i c_ij^k = delta_jk per (j, k) with a nonzero
    coefficient, on each side, read off the COO table; the (j, k) left
    out are 0 = 0 off the diagonal and 0 = 1 on it.
    """
    m = alg.n
    if m == 0:
        return None
    zero, one = alg.field.zero, alg.field.one
    (I, J, K), V, D = alg.coo
    eqs = {}
    for i, j, k, c in zip(I.tolist(), J.tolist(), K.tolist(), to_field(V, D, alg.field)):
        eqs.setdefault((0, j, k), {})[i] = c       # u b_j
        eqs.setdefault((1, i, k), {})[j] = c       # b_i u
    if any((side, j, j) not in eqs for side in (0, 1) for j in range(m)):
        return None
    system = {(tuple(sorted(row.items())), j == k): row for (_side, j, k), row in eqs.items()}
    return Matrix([[row.get(i, zero) for i in range(m)] for row in system.values()],
                  alg.field).solve([one if diag else zero for _row, diag in system])


def iota_maps(ca):
    """iota_0 = inclusion of the coordinate algebra, iota_1 = phi iota_0,
    iota_2 = phi^2 iota_0, as maps into the ambient Lie algebra."""
    g = ca.ambient
    phi = ca.action["phi"]
    src = ca.awi.algebra
    i0 = LinearMap(src, g, ca.embedding)
    i1 = LinearMap(src, g, phi @ ca.embedding)
    i2 = LinearMap(src, g, phi @ (phi @ ca.embedding))
    return i0, i1, i2


def s4_on_h3(J):
    """The S4 action on the Jordan algebra H3(C^) of hermitian 3x3 matrices:
    tau1, tau2 flip signs of two iota-blocks, phi cycles e_i and iota_i,
    tau swaps e1/e2 and conjugates the coordinates."""
    if getattr(J, "provenance", None) != "h3":
        raise ValueError("s4_on_h3 needs an H3-type Jordan algebra")
    alg = J.algebra
    f = alg.field
    Chat = J.source
    d = Chat.dim
    n = alg.n
    conj = Chat.conj_matrix()

    def build(e_images, iota_sign, iota_perm, conjugate):
        M = Matrix.zeros(n, n, f)
        for i in range(3):
            M[J.e_index(e_images[i]), J.e_index(i)] = f.one
        for i in range(3):
            tgt = iota_perm[i]
            for j in range(d):
                src_col = J.iota_index(i, j)
                img = conj.column(j) if conjugate else [f.one if t == j else f.zero for t in range(d)]
                for t in range(d):
                    if img[t]:
                        M[J.iota_index(tgt, t), src_col] = f.of(iota_sign[i]) * img[t]
        return M

    tau1 = build([0, 1, 2], [1, -1, -1], [0, 1, 2], False)
    tau2 = build([0, 1, 2], [-1, 1, -1], [0, 1, 2], False)
    phi = build([1, 2, 0], [1, 1, 1], [1, 2, 0], False)
    tau = build([0, 2, 1], [1, 1, 1], [0, 2, 1], True)
    return GroupAction(alg, tau1, tau2, phi, tau, name="S4 on H3(%s)" % Chat.name)


def _block_action(T, der_block, c0_block, j0_block, djj_block):
    """Assemble a generator matrix on T = der C + (C0 x J0) + d_{J,J} from blocks."""
    f = T.algebra.field
    M = Matrix.zeros(T.algebra.n, T.algebra.n, f)

    def nonzero(B):
        return [(i, j, c) for i, row in enumerate(B.rows) for j, c in enumerate(row) if c]

    for i, j, c in nonzero(der_block):
        M.rows[i][j] = c
    j0_nz = nonzero(j0_block)
    for ci2, ci, a in nonzero(c0_block):
        for xj2, xj, b in j0_nz:
            M.rows[T.tensor_index(ci2, xj2)][T.tensor_index(ci, xj)] = a * b
    off = T.djj_offset
    for i, j, c in nonzero(djj_block):
        M.rows[off + i][off + j] = c
    return M


def conjugation_block(span, mats, P, what):
    """The matrix whose column s holds the coordinates in span of
    P mats[s] P^{-1}: one int_fast.bilinear contraction of the list with
    the rows of P and the columns of P^{-1}, then Subspace.coords_many."""
    f = P.field
    k = len(mats)
    if not k:
        return Matrix.zeros(0, 0, f)
    n = P.nrows
    (S, R, C), V, D = matrices_coo(mats, f)
    pc, pv, DP = rows_coo(P.rows, f)
    (qr, qc), qv, DQ = rows_coo(P.inverse().rows, f)
    (i, l, s), sums, _path = bilinear(((R, C, S), V), (pc, pv), ((qc, qr), qv), f.p)
    ids, ks, V, D, outside = span.coords_many(s, i * n + l, sums, D * DP * DQ)
    if len(outside):
        raise ValueError("matrix is not in %s" % what)
    return Matrix.from_entries(k, k, ks, ids, to_field(V, D, f), f)


def s4_on_tits_left(T, base_action=None):
    """S4 on T(C,J) through the left composition factor:
    psi(D + a x x + d) = psi D psi^{-1} + psi(a) x x + d.

    base_action defaults to the Cayley embedding; pass another action (for
    instance on the invariant quaternion subalgebra) to restrict."""
    from .composition import s4_on_cayley
    C = T.C
    actC = base_action if base_action is not None else s4_on_cayley(C)
    f = T.algebra.field
    gens = {}
    Idjj = Matrix.identity(T.djj_dim, f)
    Ij0 = Matrix.identity(len(T.j0_basis), f)
    for name, Mpsi in actC.gens.items():
        der_block = conjugation_block(T.derC.span, T.derC.matrices, Mpsi, "der C")
        c0_cols = [T.c0_coords(Mpsi.apply(a)) for a in T.c0_basis]
        c0_block = (Matrix.from_columns(c0_cols, f) if T.c0_basis
                    else Matrix.zeros(0, 0, f))
        gens[name] = _block_action(T, der_block, c0_block, Ij0, Idjj)
    return GroupAction(T.algebra, gens["tau1"], gens["tau2"], gens["phi"], gens["tau"],
                       name="S4 on T(%s,%s) left" % (C.name, T.J.name))


def s4_on_tits_right(T):
    """S4 on T(C,J) through the Jordan factor H3(C^):
    psi(D + a x x + d) = D + a x psi(x) + psi d psi^{-1}."""
    actJ = s4_on_h3(T.J)
    f = T.algebra.field
    gens = {}
    Ider = Matrix.identity(T.der_dim, f)
    Ic0 = Matrix.identity(len(T.c0_basis), f)
    for name, Mpsi in actJ.gens.items():
        j0_cols = [T.j0_coords(Mpsi.apply(x)) for x in T.j0_basis]
        j0_block = (Matrix.from_columns(j0_cols, f) if T.j0_basis
                    else Matrix.zeros(0, 0, f))
        djj_block = conjugation_block(T.djj.span, T.djj.matrices, Mpsi, "d_{J,J}")
        gens[name] = _block_action(T, Ider, Ic0, j0_block, djj_block)
    return GroupAction(T.algebra, gens["tau1"], gens["tau2"], gens["phi"], gens["tau"],
                       name="S4 on T(%s,%s) right" % (T.C.name, T.J.name))
