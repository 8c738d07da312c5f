"""S4 actions by automorphisms, Klein-four gradings, coordinate algebras.

An action is stored as matrices for the four generators

    tau1 = (12)(34),  tau2 = (23)(14),  phi = (123),  tau = (12),

subject to tau1 tau2 = tau2 tau1, phi tau1 = tau2 phi,
phi tau2 = tau1 tau2 phi, tau1 tau = tau tau1, tau2 tau = tau tau2 tau1,
tau phi = phi^2 tau, tau1^2 = tau2^2 = tau^2 = 1, phi^3 = 1.

The commuting involutions tau1, tau2 grade the target over Z2 x Z2; the
(1,0) component {X : tau1 X = X, tau2 X = -X} carries the coordinate
algebra with X.Y = -tau([phi(X), phi^2(Y)]) and involution -tau.
"""

from .exact import Matrix, Subspace, vec_eq, vec_is_zero
from .algebra import SuperAlgebra, LinearMap, is_automorphism
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


class GroupAction:
    """Matrices for the four S4 generators acting on a target space."""

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

    def __getitem__(self, name):
        return self.gens[name]

    def element(self, word):
        """Matrix of a word in the generators, e.g. ("phi", "tau1")."""
        if isinstance(word, str):
            word = tuple(w for w in word.replace("*", " ").split() if w)
        M = Matrix.identity(self.dim, self.field)
        for w in word:
            M = M @ self.gens[w]
        return M

    def relation_failures(self):
        out = []
        for lhs, rhs in RELATIONS:
            if self.element(lhs) != self.element(rhs):
                out.append((lhs, rhs))
        return out

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

    def as_transported_grading(self):
        """(algebra in the component basis, Grading) for check_grading."""
        from .algebra import Grading
        g = self.action.target
        cols, degrees = [], []
        for key in self.KEYS:
            for v in self.components[key]:
                cols.append(v)
                degrees.append(key)
        U = Matrix.from_columns(cols, g.field)
        return g.transported(U, name=g.name + "/klein"), Grading("Z2xZ2", degrees)


def klein_grading(action):
    """Decompose the target into the four simultaneous tau1/tau2 eigenspaces."""
    t1, t2 = action["tau1"], action["tau2"]
    n = action.dim
    f = action.field
    I = Matrix.identity(n, f)
    if t1 @ t1 != I or t2 @ t2 != I or t1 @ t2 != t2 @ t1:
        raise ValueError("tau1, tau2 are not commuting involutions (not an action)")
    components = {}
    total = 0
    for a in (0, 1):
        for b in (0, 1):
            s1 = f.of(1 if b == 0 else -1)
            s2 = f.of(1 if a == 0 else -1)
            rows = (t1 - I.scale(s1)).rows + (t2 - I.scale(s2)).rows
            basis = Matrix(rows, f).kernel_basis()
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

    def conj_ambient(self, X):
        return [-x for x in self.action["tau"].apply(X)]

    def coords(self, X):
        c = self.span.coords(X)
        if c is None:
            raise ValueError("vector is not in the (1,0) component")
        return c

    def ambient_vector(self, coords):
        return self.embedding.apply(coords)


def coordinate_algebra(g, action, basis=None, name=None):
    """Coordinate algebra of g under an S4 action.

    basis: optional list of ambient vectors to use as the preferred basis
    of the (1,0) component (each is verified to lie there).  Without it the
    component basis comes from klein_grading, which is fine for moderate
    dimensions; large constructions should pass their distinguished basis.
    """
    t1, t2 = action["tau1"], action["tau2"]
    if basis is None:
        basis = klein_grading(action).components[(1, 0)]
    span = Subspace(g.n, g.field)
    for v in basis:
        if not vec_eq(t1.apply(v), v) or not vec_eq(t2.apply(v), [-x for x in v]):
            raise ValueError("proposed basis vector is not in the (1,0) component")
        if not span.add(v):
            raise ValueError("proposed basis is linearly dependent")
    m = span.dim
    embedding = Matrix.from_columns(span.basis, g.field) if m else Matrix.zeros(g.n, 0, g.field)

    # helper algebra so we can hand coordinates around
    tmp = CoordinateAlgebra(g, action, None, embedding, span, None)
    sc = {}
    parity = [g.parity_of_vector(v) for v in span.basis]
    if any(p is None for p in parity):
        raise ValueError("component basis vectors must be parity homogeneous")
    for i in range(m):
        for j in range(m):
            prod = tmp.product_ambient(span.basis[i], span.basis[j])
            if vec_is_zero(prod):
                continue
            row = {k: c for k, c in enumerate(tmp.coords(prod)) if c}
            if row:
                sc[(i, j)] = row
    labels = ["c%d" % i for i in range(m)]
    alg = SuperAlgebra(labels, sc, parity=parity, field=g.field,
                       name=name or ("coord(%s)" % g.name))
    sigma_cols = [tmp.coords(tmp.conj_ambient(v)) for v in span.basis]
    sigma = Matrix.from_columns(sigma_cols, g.field) if m else Matrix.zeros(0, 0, g.field)
    awi = AlgebraWithInvolution(alg, sigma)
    unit = _find_unit(alg)
    return CoordinateAlgebra(g, action, awi, embedding, span, unit)


def _find_unit(alg):
    """Solve u*x = x = x*u on the basis; None if the algebra is not unital.

    One equation sum_i u_i c_ij^k = delta_jk per (j, k) with a nonzero
    coefficient, on each side, read off the sparse table; the (j, k) left
    out are 0 = 0 off the diagonal and 0 = 1 on it.
    """
    m = alg.n
    if m == 0:
        return None
    zero, one = alg.field.zero, alg.field.one
    eqs = {}
    for (i, j), row in alg.sc.items():
        for k, c in row.items():
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
    n = T.algebra.n
    M = Matrix.zeros(n, n, f)
    m = T.der_dim
    for i in range(m):
        for j in range(m):
            M[i, j] = der_block[i, j]
    nc, nj = len(T.c0_basis), len(T.j0_basis)
    for ci in range(nc):
        for xj in range(nj):
            col = T.tensor_index(ci, xj)
            for ci2 in range(nc):
                for xj2 in range(nj):
                    c = c0_block[ci2, ci] * j0_block[xj2, xj]
                    if c:
                        M[T.tensor_index(ci2, xj2), col] = c
    off = T.djj_offset
    for i in range(T.djj_dim):
        for j in range(T.djj_dim):
            M[off + i, off + j] = djj_block[i, j]
    return M


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
        Minv = Mpsi.inverse()
        der_cols = [T.derC.coords_matrix(Mpsi @ D @ Minv) for D in T.derC.matrices]
        der_block = (Matrix.from_columns(der_cols, f) if T.der_dim
                     else Matrix.zeros(0, 0, f))
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
        Minv = Mpsi.inverse()
        j0_cols = [T.j0_coords(Mpsi.apply(x)) for x in T.j0_basis]
        j0_block = (Matrix.from_columns(j0_cols, f) if T.j0_basis
                    else Matrix.zeros(0, 0, f))
        djj_cols = [T.djj.coords_matrix(Mpsi @ D @ Minv) for D in T.djj.matrices]
        djj_block = (Matrix.from_columns(djj_cols, f) if T.djj_dim
                     else Matrix.zeros(0, 0, f))
        gens[name] = _block_action(T, Ider, Ic0, j0_block, djj_block)
    return GroupAction(T.algebra, gens["tau1"], gens["tau2"], gens["phi"], gens["tau"],
                       name="S4 on T(%s,%s) right" % (T.C.name, T.J.name))
