"""S4 actions by automorphisms, Klein-four gradings, coordinate algebras.

An action is given by its four generators

    tau1 = (12)(34),  tau2 = (23)(14),  phi = (123),  tau = (12),

subject to tau1 tau2 = tau2 tau1, phi tau1 = tau2 phi,
phi tau2 = tau1 tau2 phi, tau1 tau = tau tau1, tau2 tau = tau tau2 tau1,
tau phi = phi^2 tau, tau1^2 = tau2^2 = tau^2 = 1, phi^3 = 1.

The commuting involutions tau1, tau2 grade the target over Z2 x Z2; the
(1,0) component {X : tau1 X = X, tau2 X = -X} carries the coordinate
algebra with X.Y = -tau([phi(X), phi^2(Y)]) and involution -tau.

A generator is stored as its lowered COO ((R, C), V, D), integers in
lowest terms (GroupAction.from_coo; the constructor lowers hand-written
Matrices once), and its Matrix is built only when a caller reads it.  A
word is a chain of int_fast.compose products, the empty word the
identity; a relation lhs = rhs is one int_fast.same_map fold of
lhs D_rhs - rhs D_lhs, which fails iff a key survives; the automorphism
check is algebra.lowered_map_failures on the stored integers, with the
generator's order relation as its invertibility.  The Klein components
are kernels of rows folded from the generators' entries and shifted
diagonals.  The actions on T(C, J) are assembled from integers: the
conjugation blocks of der C and d_{J,J} are single sparse exact
contractions of their lowered matrices (conjugation_block), the C0 and
J0 blocks are matvec images with batched, exactly checked coordinates,
and the blocks are placed by index offsets in one int_fast.fold_table.
The coordinate algebra is one int_fast.bilinear and matvec contraction.
"""

from functools import cached_property

import numpy as np

from .exact import Matrix, Subspace
from .algebra import SuperAlgebra, LinearMap, _invertible, lowered_map_failures, outer_block
from .int_fast import (as_ints, bilinear, compose, fold, fold_table, identity_coo, matvec, reduced,
                       rows_coo, same_map, to_field)
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


# the order relation of each generator: tau1^2 = tau2^2 = tau^2 = 1, phi^3 = 1
ORDER_RELATIONS = dict(zip(("tau1", "tau2", "tau", "phi"), RELATIONS[6:10]))


class GroupAction:
    """The four S4 generators acting on a target space of dimension dim,
    each stored as its lowered COO ((R, C), V, D): V[e] / D at (R[e], C[e]),
    sorted row-major, in lowest terms, what int_fast.rows_coo gives for its
    Matrix.  Builders hand their integers to from_coo; the constructor lowers
    hand-written Matrices once.  `gens` (and act[name]) are the Matrices,
    built on first read."""

    def __init__(self, target, tau1, tau2, phi, tau, name="S4 action"):
        mats = dict(zip(GEN_NAMES, (tau1, tau2, phi, tau)))
        n, f = tau1.nrows, tau1.field
        for M in mats.values():
            if M.nrows != n or M.ncols != n:
                raise ValueError("generator matrices must be square of equal size")
            if M.field != f:
                raise ValueError("generator matrices over %s and %s" % (f, M.field))
        self._setup(target, {g: rows_coo(M.rows, f) for g, M in mats.items()}, n, f, name)

    @classmethod
    def from_coo(cls, target, gens, dim, field, name="S4 action"):
        """The action whose generator g is the dim x dim matrix with V[e] / D
        at (R[e], C[e]), summed over e, for gens = {g: ((R, C), V, D)} over
        the names GEN_NAMES (integers denominator-cleared over QQ, any
        integers over GF(p))."""
        act = cls.__new__(cls)
        act._setup(target, gens, dim, field, name)
        return act

    def _setup(self, target, gens, dim, field, name):
        """Validate and store the generators: one fold each sums equal
        (row, column) and drops the zeros, then int_fast.reduced puts them in
        lowest terms.  ValueError unless the names are GEN_NAMES, every index
        lies in range(dim) and the target has dimension dim over field."""
        if sorted(gens) != sorted(GEN_NAMES):
            raise ValueError("generators %s, an S4 action needs %s"
                             % (", ".join(sorted(gens)), ", ".join(GEN_NAMES)))
        if target is not None and (target.n, target.field) != (dim, field):
            raise ValueError("generators of dimension %d over %s, the target has dimension "
                             "%d over %s" % (dim, field, target.n, target.field))
        p = field.p
        self._lowered = {}
        for g in GEN_NAMES:
            (R, C), V, D = gens[g]
            R, C = np.asarray(R, dtype=np.int64), np.asarray(C, dtype=np.int64)
            if len(R) and min(R.min(), C.min(), dim - 1 - R.max(), dim - 1 - C.max()) < 0:
                raise ValueError("generator %s has an entry outside range(%d)" % (g, dim))
            scale, D = (1, D) if p is None else (pow(D, -1, p), 1)    # residues over GF(p)
            keys, V, _path = fold([(R * dim + C, [as_ints(V), scale])], p)
            V, D = reduced(V, D)
            R, C = keys // dim, keys % dim
            for a in (R, C, V):
                a.setflags(write=False)
            self._lowered[g] = (R, C), V, D
        self.target, self.dim, self.field, self.name = target, dim, field, name

    @cached_property
    def gens(self):
        """{name: Matrix} of the generators, built from `lowered` on first read."""
        return {g: Matrix.from_coo(self.dim, self.dim, self._lowered[g], self.field)
                for g in GEN_NAMES}

    def __getitem__(self, name):
        return self.gens[name]

    def lowered(self, name):
        """Generator `name` as its stored integers ((R, C), V, D)."""
        return self._lowered[name]

    def _product(self, word):
        """The matrix of a word, lowered: the identity (the empty word) times
        the letters from right to left, one int_fast.compose each.
        ValueError for a letter outside GEN_NAMES."""
        bad = [w for w in word if w not in GEN_NAMES]
        if bad:
            raise ValueError("unknown generator %r: the generators are %s"
                             % (bad[0], ", ".join(GEN_NAMES)))
        X = identity_coo(self.dim)
        for w in reversed(word):
            X = compose(self.lowered(w), X, self.field.p)
        return X

    def element(self, word):
        """Matrix of a word in the generators, e.g. ("phi", "tau1")."""
        if isinstance(word, str):
            word = tuple(w for w in word.replace("*", " ").split() if w)
        return Matrix.from_coo(self.dim, self.dim, self._product(word), self.field)

    def word_failures(self, relations):
        """The (lhs, rhs) word pairs whose matrices differ: one
        int_fast.same_map fold of lhs D_rhs - rhs D_lhs per pair."""
        return [(lhs, rhs) for lhs, rhs in relations
                if not same_map(self._product(lhs), self._product(rhs), self.field.p)]

    def relation_failures(self):
        return self.word_failures(RELATIONS)

    def automorphism_failures(self):
        """The generators that are not automorphisms of the target:
        lowered_map_failures on the stored integers, and invertibility from
        the order relation (ORDER_RELATIONS), a rank only where that fails."""
        if self.target is None:
            return []
        return [g for g in GEN_NAMES
                if lowered_map_failures(self.target, self.target, self.lowered(g), max_witnesses=1)
                or (self.word_failures([ORDER_RELATIONS[g]]) and not _invertible(self[g]))]

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
    # tau1 X = X and tau2 X = -X, exactly, on the basis as matrix columns
    for gen, sign in (("tau1", 1), ("tau2", -1)):
        if not same_map(compose(action.lowered(gen), ((xa, xi), xv, DE), p),
                        ((xa, xi), sign * xv, DE), p):
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
    iota_2 = phi^2 iota_0, as maps into the ambient Lie algebra: the
    lowered embedding pushed through the lowered phi by int_fast.compose."""
    g, f, E = ca.ambient, ca.ambient.field, ca.embedding
    phi = ca.action.lowered("phi")
    i1 = compose(phi, rows_coo(E.rows, f), f.p)
    i2 = compose(phi, i1, f.p)
    src = ca.awi.algebra
    return (LinearMap(src, g, E), *(LinearMap(src, g, Matrix.from_coo(E.nrows, E.ncols, M, f))
                                    for M in (i1, i2)))


def s4_on_h3(J):
    """The S4 action on the Jordan algebra H3(C^) of hermitian 3x3 matrices:
    tau1, tau2 flip signs of two iota-blocks, phi cycles e_i and iota_i,
    tau swaps e1/e2 and conjugates the coordinates."""
    if getattr(J, "provenance", None) != "h3":
        raise ValueError("s4_on_h3 needs an H3-type Jordan algebra")
    alg, Chat = J.algebra, J.source
    f, d = alg.field, Chat.dim
    conj = rows_coo(Chat.conj_matrix().rows, f)
    e = np.array([J.e_index(i) for i in range(3)])
    iota = np.array([[J.iota_index(i, j) for j in range(d)] for i in range(3)])

    def build(e_images, iota_sign, iota_perm, conjugate):
        """e_i -> e_{e_images[i]}, iota_i(x) -> iota_sign[i] iota_{iota_perm[i]}(x or
        its conjugate), lowered: one int_fast.fold_table."""
        (r, c), v, D = conj if conjugate else identity_coo(d)
        return fold_table([(e[e_images], e, [np.ones(3, dtype=np.int64)], 1)]
                          + [(iota[iota_perm[i]][r], iota[i][c], [v, iota_sign[i]], D)
                             for i in range(3)], alg.n, f.p)

    gens = {"tau1": build([0, 1, 2], [1, -1, -1], [0, 1, 2], False),
            "tau2": build([0, 1, 2], [-1, 1, -1], [0, 1, 2], False),
            "phi": build([1, 2, 0], [1, 1, 1], [1, 2, 0], False),
            "tau": build([0, 2, 1], [1, 1, 1], [0, 2, 1], True)}
    return GroupAction.from_coo(alg, gens, alg.n, f, name="S4 on H3(%s)" % Chat.name)


def conjugation_block(span, mats, action, name, what):
    """The coordinates in span of P M_s P^{-1}, for P the generator `name`
    of action and the lowered list mats ((S, R, C), integers, D) of the
    matrices M_s, as the lowered COO ((basis index, s), integers, D) of the
    matrix whose column s they are: one int_fast.bilinear contraction of the
    list with the rows of P and the columns of P^{-1} (Matrix.inverse of
    the small generator), then Subspace.coords_many.  ValueError naming
    `what` when one of them leaves span."""
    (S, R, C), V, D = mats
    f, n = action.field, action.dim
    (pr, pc), pv, DP = action.lowered(name)
    (qr, qc), qv, DQ = rows_coo(action[name].inverse().rows, f)
    (i, l, s), sums, _path = bilinear(((R, C, S), V), ((pr, pc), pv), ((qc, qr), qv), f.p)
    ids, ks, V, D, outside = span.coords_many(s, i * n + l, sums, D * DP * DQ)
    if len(outside):
        raise ValueError("matrix is not in %s" % what)
    return (ks, ids), V, D


def _images_in(span, action, name, X, what):
    """The coordinates in span of the images of the lowered vectors
    X = ((ids, index), integers, D) under the generator `name` of action,
    as the lowered COO ((basis index, id), integers, D) of the matrix whose
    column id they are: one int_fast.matvec and Subspace.coords_many.
    ValueError naming `what` when an image leaves span."""
    (R, C), V, D = action.lowered(name)
    (xi, xa), Vx, Dx = X
    (ids, rows), sums = matvec(((R, C), V), ((xi, xa), Vx), action.field.p)
    cid, ck, V, D, outside = span.coords_many(ids, rows, sums, D * Dx)
    if len(outside):
        raise ValueError("vector is not in %s" % what)
    return (ck, cid), V, D


def _on_tits(T, der, c0, j0, djj):
    """A generator on T = der C + (C0 x J0) + d_{J,J} from its lowered
    blocks: der on der C, the outer product of c0 and j0
    (algebra.outer_block) on C0 x J0 and djj on d_{J,J}, placed by index
    offsets in one int_fast.fold_table."""
    m, nj, off = T.der_dim, len(T.j0_basis), T.djj_offset

    def tidx(i, j):
        return m + i * nj + j
    (dr, dc), dv, dd = der
    (sr, sc), sv, sd = djj
    return fold_table([(dr, dc, [dv], dd), (off + sr, off + sc, [sv], sd),
                       outer_block(c0, j0, lambda i2, i, j2, j: (tidx(i2, j2), tidx(i, j)))],
                      T.dim, T.algebra.field.p)


def s4_on_tits_left(T, base_action=None):
    """S4 on T(C,J) through the left composition factor:
    psi(D + a x x + d) = psi D psi^{-1} + psi(a) x x + d.

    base_action defaults to the Cayley embedding; pass another action (for
    instance on the invariant quaternion subalgebra) to restrict.  Each
    generator is assembled from integers (_on_tits): its der C block by
    conjugation_block, its C0 block from the lowered base generator
    (_images_in), identities on J0 and d_{J,J}."""
    from .composition import s4_on_cayley
    C = T.C
    act = base_action if base_action is not None else s4_on_cayley(C)
    if (act.dim, act.field) != (C.dim, C.field):
        raise ValueError("the base action has dimension %d over %s but C has dimension %d "
                         "over %s" % (act.dim, act.field, C.dim, C.field))
    f = T.algebra.field
    X = rows_coo(T.c0_basis, f)
    j0, djj = identity_coo(len(T.j0_basis)), identity_coo(T.djj_dim)
    gens = {g: _on_tits(T, conjugation_block(T.derC.span, T.derC.lowered, act, g, "der C"),
                        _images_in(T.c0_span, act, g, X, "C0"), j0, djj) for g in GEN_NAMES}
    return GroupAction.from_coo(T.algebra, gens, T.dim, f,
                                name="S4 on T(%s,%s) left" % (C.name, T.J.name))


def s4_on_tits_right(T):
    """S4 on T(C,J) through the Jordan factor H3(C^):
    psi(D + a x x + d) = D + a x psi(x) + psi d psi^{-1}, assembled as in
    s4_on_tits_left from the lowered generators of s4_on_h3."""
    act = s4_on_h3(T.J)
    f = T.algebra.field
    X = rows_coo(T.j0_basis, f)
    der, c0 = identity_coo(T.der_dim), identity_coo(len(T.c0_basis))
    gens = {g: _on_tits(T, der, c0, _images_in(T.j0_span, act, g, X, "J0"),
                        conjugation_block(T.djj.span, T.djj.lowered, act, g, "d_{J,J}"))
            for g in GEN_NAMES}
    return GroupAction.from_coo(T.algebra, gens, T.dim, f,
                                name="S4 on T(%s,%s) right" % (T.C.name, T.J.name))
